//! `ParameterSpace::fingerprint` is computed once, at construction, and
//! persisted tune keys embed it. These properties hold it to a
//! reference byte-by-byte FNV-1a fold written out here, independent of
//! the shared helper, for every constructor and for arbitrary lists.

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{KernelSpec, LaunchConfig, Method, Variant};
use proptest::prelude::*;
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;

/// The fingerprint's definition: FNV-1a from the standard offset basis
/// over the count, then each config's `(TX, TY, RX, RY)`, every word as
/// its eight little-endian bytes.
fn reference_fingerprint(configs: &[LaunchConfig]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(configs.len() as u64);
    for c in configs {
        fold(c.tx as u64);
        fold(c.ty as u64);
        fold(c.rx as u64);
        fold(c.ry as u64);
    }
    h
}

fn arb_config() -> impl Strategy<Value = LaunchConfig> {
    (
        prop::sample::select(vec![16usize, 32, 48, 64, 128, 256, 512]),
        1usize..33,
        prop::sample::select(vec![1usize, 2, 4, 8]),
        prop::sample::select(vec![1usize, 2, 4, 8]),
    )
        .prop_map(|(tx, ty, rx, ry)| LaunchConfig::new(tx, ty, rx, ry))
}

fn arb_device() -> impl Strategy<Value = DeviceSpec> {
    prop::sample::select(DeviceSpec::all_devices())
}

fn arb_kernel() -> impl Strategy<Value = KernelSpec> {
    (
        prop::sample::select(vec![2usize, 4, 8, 12]),
        prop::sample::select(vec![Precision::Single, Precision::Double]),
    )
        .prop_map(|(order, prec)| {
            KernelSpec::star_order(Method::InPlane(Variant::FullSlice), order, prec)
        })
}

fn arb_dims() -> impl Strategy<Value = GridDims> {
    prop::sample::select(vec![
        GridDims::paper(),
        GridDims::new(256, 256, 64),
        GridDims::new(128, 128, 128),
        GridDims::new(96, 96, 32),
    ])
}

#[test]
fn empty_space_fingerprints_its_zero_count() {
    let empty = ParameterSpace::from_configs(Vec::new());
    assert!(empty.is_empty());
    assert_eq!(empty.fingerprint(), reference_fingerprint(&[]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary lists, the empty one included (size range starts at 0).
    #[test]
    fn from_configs_matches_the_reference_fold(
        configs in prop::collection::vec(arb_config(), 0..24),
    ) {
        let space = ParameterSpace::from_configs(configs.clone());
        prop_assert_eq!(space.fingerprint(), reference_fingerprint(&configs));
        prop_assert_eq!(space.clone().fingerprint(), space.fingerprint());
    }

    /// Swapping two different configurations changes the fingerprint:
    /// it is order-sensitive, as the tune keys that embed it require.
    #[test]
    fn swapping_two_configs_changes_the_fingerprint(
        configs in prop::collection::vec(arb_config(), 2..24),
        i in 0usize..24,
        j in 0usize..24,
    ) {
        let (i, j) = (i % configs.len(), j % configs.len());
        prop_assume!(configs[i] != configs[j]);
        let mut swapped = configs.clone();
        swapped.swap(i, j);
        prop_assert_ne!(
            ParameterSpace::from_configs(swapped).fingerprint(),
            ParameterSpace::from_configs(configs).fingerprint()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The enumerating constructors fingerprint exactly the list they
    /// expose.
    #[test]
    fn every_constructor_matches_the_reference_fold(
        dev in arb_device(),
        k in arb_kernel(),
        dims in arb_dims(),
    ) {
        let paper = ParameterSpace::paper_space(&dev, &k, &dims);
        prop_assert_eq!(paper.fingerprint(), reference_fingerprint(paper.configs()));
        let (audited, _) = ParameterSpace::paper_space_audited(&dev, &k, &dims);
        prop_assert_eq!(audited.fingerprint(), paper.fingerprint());
        let quick = ParameterSpace::quick_space(&dev, &k, &dims);
        prop_assert_eq!(quick.fingerprint(), reference_fingerprint(quick.configs()));
        let rewrapped = ParameterSpace::from_configs(quick.configs().to_vec());
        prop_assert_eq!(rewrapped.fingerprint(), quick.fingerprint());
    }
}
