//! The hot-key LRU is keyed by a request's exact identity, not by its
//! persistent key hash. Two requests must share an LRU entry exactly
//! when every input of their stable `TuneKey`s is equal: a request
//! that differs in one input and still hit another's entry would be
//! served the wrong tuning result.

use gpu_sim::{DeviceSpec, GridDims, LEGACY_COALESCE_SEGMENT_BYTES};
use inplane_core::{KernelSpec, LaunchConfig, Method, Variant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stencil_autotune::{AnnealOptions, ParameterSpace, Provenance, TuneSample};
use stencil_grid::Precision;
use stencil_tuneserve::{HotKeyLru, TrafficMix};
use stencil_tunestore::{TuneRequest, TuneResponse, TunerSpec};

fn base() -> TuneRequest {
    TuneRequest {
        device: DeviceSpec::gtx580(),
        kernel: KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single),
        dims: GridDims::new(32, 32, 8),
        space: ParameterSpace::from_configs(vec![LaunchConfig::new(32, 4, 1, 1)]),
        tuner: TunerSpec::Exhaustive,
        seed: 1,
    }
}

fn response_for(req: &TuneRequest) -> TuneResponse {
    let best = TuneSample {
        config: LaunchConfig::new(32, 4, 1, 1),
        mpoints: 1.0,
    };
    TuneResponse {
        best,
        evaluated: 1,
        samples: vec![best],
        provenance: Provenance::Computed,
        key_hash: req.key().stable_hash(),
    }
}

/// Whether `b` is served the entry cached for `a`.
fn shares_lru_entry(a: &TuneRequest, b: &TuneRequest) -> bool {
    let lru = HotKeyLru::new(4);
    lru.put(a.identity(), response_for(a));
    lru.get(&b.identity()).is_some()
}

/// `a` and `b` share an entry, have equal identities and equal stable
/// keys exactly when `same` holds.
fn assert_shared(a: &TuneRequest, b: &TuneRequest, same: bool) {
    assert_eq!(shares_lru_entry(a, b), same, "LRU entry sharing");
    assert_eq!(a.identity() == b.identity(), same, "identity equality");
    assert_eq!(
        a.key().stable_hash() == b.key().stable_hash(),
        same,
        "stable key equality"
    );
}

fn with(edit: impl FnOnce(&mut TuneRequest)) -> TuneRequest {
    let mut req = base();
    edit(&mut req);
    req
}

#[test]
fn equal_inputs_share_an_entry() {
    assert_shared(&base(), &base(), true);
}

#[test]
fn negative_zero_is_not_zero() {
    let pos = with(|r| r.device.l1_dup_charge = 0.0);
    let neg = with(|r| r.device.l1_dup_charge = -0.0);
    // Derived equality conflates them; the stable key does not.
    assert_eq!(pos.device, neg.device);
    assert_shared(&pos, &neg, false);
    assert_shared(&neg, &with(|r| r.device.l1_dup_charge = -0.0), true);
}

#[test]
fn nan_fields_compare_by_bits() {
    let nan = with(|r| r.device.dp_ratio = f64::NAN);
    // Derived equality never matches a NaN; the same bits must.
    assert_ne!(nan.device, nan.clone().device);
    assert_shared(&nan, &nan.clone(), true);
    let other_payload = with(|r| r.device.dp_ratio = f64::from_bits(f64::NAN.to_bits() ^ 1));
    assert!(other_payload.device.dp_ratio.is_nan());
    assert_shared(&nan, &other_payload, false);
}

#[test]
fn the_kernel_name_alone_separates_requests() {
    // Same length, last byte changed.
    let renamed = with(|r| {
        let last = r.kernel.name.len() - 1;
        r.kernel.name.replace_range(last.., "#");
    });
    assert_shared(&base(), &renamed, false);
}

#[test]
fn beta_compares_by_bits() {
    let beta = |b: f64| with(|r| r.tuner = TunerSpec::ModelBased { beta_percent: b });
    assert_shared(&beta(5.0), &beta(5.0), true);
    assert_shared(
        &beta(5.0),
        &beta(f64::from_bits(5.0f64.to_bits() + 1)),
        false,
    );
    assert_shared(&beta(5.0), &base(), false);
}

#[test]
fn the_seed_separates_requests() {
    assert_shared(&base(), &with(|r| r.seed = 2), false);
}

#[test]
fn the_space_fingerprint_separates_requests() {
    let other = with(|r| {
        r.space = ParameterSpace::from_configs(vec![LaunchConfig::new(64, 4, 1, 1)]);
    });
    assert_shared(&base(), &other, false);
    let rebuilt = with(|r| {
        r.space = ParameterSpace::from_configs(vec![LaunchConfig::new(32, 4, 1, 1)]);
    });
    assert_shared(&base(), &rebuilt, true);
}

#[test]
fn a_legacy_elided_field_still_separates_requests() {
    assert_eq!(
        base().device.coalesce_segment_bytes,
        LEGACY_COALESCE_SEGMENT_BYTES
    );
    // The legacy value is elided from the persistent fingerprint but is
    // still an input: setting it explicitly changes nothing, any other
    // value changes both the identity and the stable key.
    let explicit = with(|r| r.device.coalesce_segment_bytes = LEGACY_COALESCE_SEGMENT_BYTES);
    assert_shared(&base(), &explicit, true);
    let wave64 = with(|r| r.device.coalesce_segment_bytes = 64);
    assert_shared(&base(), &wave64, false);
    let wide_banks = with(|r| r.device.smem_bank_bytes = 8);
    assert_shared(&base(), &wide_banks, false);
}

/// Every input of the stable key, written out field by field,
/// independently of the key's own writer: floats by bit pattern, the
/// legacy-elided geometry fields raw.
fn input_words(r: &TuneRequest) -> (String, String, Vec<u64>) {
    let d = &r.device;
    let k = &r.kernel;
    let mut words = vec![
        d.arch.fingerprint_code(),
        d.sm_count as u64,
        d.cores_per_sm as u64,
        d.clock_mhz.to_bits(),
        d.regs_per_sm as u64,
        d.reg_alloc_per_warp as u64,
        d.max_regs_per_thread as u64,
        d.smem_per_sm as u64,
        d.smem_alloc_granularity as u64,
        d.max_threads_per_block as u64,
        d.max_warps_per_sm as u64,
        d.max_blocks_per_sm as u64,
        d.warp_size as u64,
        d.peak_bandwidth.to_bits(),
        d.achieved_bw_fraction.to_bits(),
        d.segment_bytes,
        d.coalesce_segment_bytes,
        d.mem_latency_cycles.to_bits(),
        d.lsu_per_sm as u64,
        d.issue_per_cycle.to_bits(),
        d.dp_ratio.to_bits(),
        d.smem_banks as u64,
        d.smem_bank_bytes as u64,
        d.l1_dup_charge.to_bits(),
        k.method.id(),
        k.radius as u64,
        k.elem_bytes as u64,
        k.flops_per_point as u64,
        k.streamed_inputs as u64,
        k.coeff_inputs as u64,
        k.outputs as u64,
        r.dims.lx as u64,
        r.dims.ly as u64,
        r.dims.lz as u64,
        r.seed,
        r.space.fingerprint(),
    ];
    words.extend(match &r.tuner {
        TunerSpec::Exhaustive => [0, 0, 0, 0],
        TunerSpec::ModelBased { beta_percent } => [1, beta_percent.to_bits(), 0, 0],
        TunerSpec::Stochastic(o) => [
            2,
            o.evaluations as u64,
            o.initial_temperature.to_bits(),
            o.stall_limit as u64,
        ],
    });
    (d.name.to_string(), k.name.clone(), words)
}

fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// Change one key input of `r` to a value drawn from a small pool, so
/// independently mutated copies often agree.
fn mutate(r: &mut TuneRequest, rng: &mut StdRng) {
    let float = |rng: &mut StdRng| pick(rng, &[0.0, -0.0, f64::NAN, 0.5, 1.0]);
    let small = |rng: &mut StdRng| pick(rng, &[1usize, 2, 4]);
    let d = &mut r.device;
    match rng.gen_range(0..16usize) {
        0 => d.name = pick(rng, &["gtx580", "gtx58", "gtx5800"]),
        1 => d.l1_dup_charge = float(rng),
        2 => d.dp_ratio = float(rng),
        3 => d.clock_mhz = float(rng),
        4 => d.sm_count = small(rng),
        5 => d.coalesce_segment_bytes = pick(rng, &[LEGACY_COALESCE_SEGMENT_BYTES, 64, 32]),
        6 => d.smem_bank_bytes = pick(rng, &[4, 8]),
        7 => r.kernel.name = pick(rng, &["a", "b", "star"]).to_string(),
        8 => r.kernel.method = pick(rng, &Method::ALL),
        9 => r.kernel.radius = small(rng),
        10 => r.kernel.outputs = small(rng),
        11 => r.dims = GridDims::new(32, 32, small(rng) * 8),
        12 => r.seed = pick(rng, &[1, 2, 3]),
        13 => {
            let tx = pick(rng, &[32, 64]);
            r.space = ParameterSpace::from_configs(vec![LaunchConfig::new(tx, 4, 1, 1)]);
        }
        14 => {
            r.tuner = TunerSpec::ModelBased {
                beta_percent: float(rng),
            }
        }
        _ => {
            r.tuner = if rng.gen_bool(0.5) {
                TunerSpec::Exhaustive
            } else {
                TunerSpec::Stochastic(AnnealOptions {
                    evaluations: small(rng),
                    ..AnnealOptions::default()
                })
            }
        }
    }
}

/// Seeded property over the serving universe × single-field
/// mutations: identity equality holds exactly when the stable-key
/// input words are equal, which in turn is exactly when the stable
/// hashes are equal; the allocation-free `stable_hash` always agrees
/// with the owned key's.
#[test]
fn identity_equality_is_input_equality() {
    let universe = TrafficMix::standard().universe();
    let mut rng = StdRng::seed_from_u64(0x1d_e4_71);
    let (mut equal, mut unequal) = (0, 0);
    for _ in 0..3000 {
        let origin = &universe[rng.gen_range(0..universe.len())];
        let mut a = origin.clone();
        let mut b = if rng.gen_bool(0.5) {
            origin.clone()
        } else {
            universe[rng.gen_range(0..universe.len())].clone()
        };
        mutate(&mut a, &mut rng);
        if rng.gen_bool(0.7) {
            mutate(&mut b, &mut rng);
        }
        let same_words = input_words(&a) == input_words(&b);
        let same_id = a.identity() == b.identity();
        assert_eq!(same_id, same_words, "{a:?}\n{b:?}");
        assert_eq!(
            a.key().stable_hash() == b.key().stable_hash(),
            same_words,
            "{a:?}\n{b:?}"
        );
        for r in [&a, &b] {
            assert_eq!(r.stable_hash(), r.key().stable_hash());
        }
        if same_id {
            equal += 1;
            assert_eq!(a.identity().fast_hash(), b.identity().fast_hash());
        } else {
            unequal += 1;
        }
    }
    // Both sides of the equivalence are exercised.
    assert!(
        equal > 100 && unequal > 100,
        "{equal} equal, {unequal} unequal"
    );
}
