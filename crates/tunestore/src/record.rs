//! One persisted tuning result and its JSONL wire format.
//!
//! Each line is `{"crc":"<16 hex>","rec":{...}}`: the FNV-1a checksum
//! of the exact `rec` payload bytes wraps a flat JSON object holding
//! every [`TuneKey`] field plus the winning configuration. On load the
//! checksum is verified against the raw substring *before* any parsing,
//! the schema-version field gates stale layouts, and the key hash is
//! recomputed from the parsed fields and compared against the stored
//! one — so a record survives only if it is byte-intact, current, and
//! self-consistent. Everything else is skipped with a counter, never a
//! panic.

use std::collections::BTreeMap;
use std::fmt;

use gpu_sim::{fnv1a, GridDims};
use inplane_core::{KernelSpec, LaunchConfig, Method};

use crate::json::{escape, parse_flat_object, Value};
use crate::key::{TuneKey, TunerKind, SCHEMA_VERSION};

/// A tuning result bound to its [`TuneKey`].
#[derive(Clone, Debug, PartialEq)]
pub struct TuneRecord {
    /// Identity of the tuning problem.
    pub key: TuneKey,
    /// The winning configuration.
    pub best: LaunchConfig,
    /// Its measured throughput, MPoint/s (bit-exact across the disk
    /// round-trip: persisted as the `f64` bit pattern).
    pub mpoints: f64,
    /// Configurations the producing search executed.
    pub evaluated: u64,
}

/// Why a persisted line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Structurally broken: bad framing, bad JSON, missing or
    /// out-of-range fields. Includes truncated (torn) lines.
    Malformed(&'static str),
    /// The payload bytes do not match their checksum.
    Checksum,
    /// Written under a different schema version.
    StaleSchema(u64),
    /// Parsed cleanly but the recomputed key hash differs from the
    /// stored one (key layout or hash function changed under the same
    /// schema version — treated as stale).
    KeyMismatch,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Malformed(why) => write!(f, "malformed record: {why}"),
            RecordError::Checksum => write!(f, "checksum mismatch"),
            RecordError::StaleSchema(v) => write!(f, "stale schema version {v}"),
            RecordError::KeyMismatch => write!(f, "stored key hash does not match fields"),
        }
    }
}

impl std::error::Error for RecordError {}

impl RecordError {
    /// True for schema/key staleness (vs byte-level corruption).
    pub fn is_stale(&self) -> bool {
        matches!(self, RecordError::StaleSchema(_) | RecordError::KeyMismatch)
    }
}

fn get_u64(map: &BTreeMap<String, Value>, key: &'static str) -> Result<u64, RecordError> {
    map.get(key)
        .and_then(Value::as_u64)
        .ok_or(RecordError::Malformed("missing integer field"))
}

fn get_str<'m>(
    map: &'m BTreeMap<String, Value>,
    key: &'static str,
) -> Result<&'m str, RecordError> {
    map.get(key)
        .and_then(Value::as_str)
        .ok_or(RecordError::Malformed("missing string field"))
}

fn get_hex(map: &BTreeMap<String, Value>, key: &'static str) -> Result<u64, RecordError> {
    let s = get_str(map, key)?;
    u64::from_str_radix(s, 16).map_err(|_| RecordError::Malformed("bad hex field"))
}

const CRC_PREFIX: &str = "{\"crc\":\"";
const REC_INFIX: &str = "\",\"rec\":";

impl TuneRecord {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let k = &self.key;
        let params = k.tuner.params();
        let payload = format!(
            "{{\"v\":{v},\"key\":\"{key:016x}\",\"dev\":\"{dev}\",\"dev_fp\":\"{dev_fp:016x}\",\
             \"kernel\":\"{kernel}\",\"method\":\"{method}\",\"radius\":{radius},\
             \"elem_bytes\":{elem},\"flops\":{flops},\"streamed\":{streamed},\
             \"coeff\":{coeff},\"outputs\":{outputs},\
             \"lx\":{lx},\"ly\":{ly},\"lz\":{lz},\
             \"tuner\":\"{tuner}\",\"tp0\":\"{tp0:016x}\",\"tp1\":\"{tp1:016x}\",\
             \"tp2\":\"{tp2:016x}\",\"seed\":{seed},\"space_fp\":\"{space_fp:016x}\",\
             \"tx\":{tx},\"ty\":{ty},\"rx\":{rx},\"ry\":{ry},\
             \"mp_bits\":\"{mp_bits:016x}\",\"mpoints\":{mpoints:.3},\"evaluated\":{eval}}}",
            v = SCHEMA_VERSION,
            key = k.stable_hash(),
            dev = escape(&k.device_name),
            dev_fp = k.device_fp,
            kernel = escape(&k.kernel.name),
            method = escape(&k.kernel.method.label()),
            radius = k.kernel.radius,
            elem = k.kernel.elem_bytes,
            flops = k.kernel.flops_per_point,
            streamed = k.kernel.streamed_inputs,
            coeff = k.kernel.coeff_inputs,
            outputs = k.kernel.outputs,
            lx = k.dims.lx,
            ly = k.dims.ly,
            lz = k.dims.lz,
            tuner = k.tuner.label(),
            tp0 = params[0],
            tp1 = params[1],
            tp2 = params[2],
            seed = k.seed,
            space_fp = k.space_fp,
            tx = self.best.tx,
            ty = self.best.ty,
            rx = self.best.rx,
            ry = self.best.ry,
            mp_bits = self.mpoints.to_bits(),
            mpoints = self.mpoints,
            eval = self.evaluated,
        );
        format!(
            "{CRC_PREFIX}{:016x}{REC_INFIX}{payload}}}",
            fnv1a(payload.as_bytes())
        )
    }

    /// Parse one JSONL line. See the [module docs](self) for the
    /// verification layering.
    pub fn from_jsonl(line: &str) -> Result<TuneRecord, RecordError> {
        // Framing: {"crc":"<16 hex>","rec":<payload>}
        let rest = line
            .strip_prefix(CRC_PREFIX)
            .ok_or(RecordError::Malformed("bad framing prefix"))?;
        if rest.len() < 16 {
            return Err(RecordError::Malformed("truncated before checksum"));
        }
        // Byte 16 need not be a char boundary on a damaged line.
        let (crc_hex, rest) = rest
            .split_at_checked(16)
            .ok_or(RecordError::Malformed("bad crc hex"))?;
        let stored_crc =
            u64::from_str_radix(crc_hex, 16).map_err(|_| RecordError::Malformed("bad crc hex"))?;
        let rest = rest
            .strip_prefix(REC_INFIX)
            .ok_or(RecordError::Malformed("bad framing infix"))?;
        let payload = rest
            .strip_suffix('}')
            .ok_or(RecordError::Malformed("truncated line"))?;

        // Byte-level integrity before any parsing.
        if fnv1a(payload.as_bytes()) != stored_crc {
            return Err(RecordError::Checksum);
        }

        let map = parse_flat_object(payload).map_err(|e| RecordError::Malformed(e.reason))?;

        // Schema gate.
        let version = get_u64(&map, "v")?;
        if version != SCHEMA_VERSION {
            return Err(RecordError::StaleSchema(version));
        }

        let method = Method::from_label(get_str(&map, "method")?)
            .ok_or(RecordError::Malformed("unknown method label"))?;
        let kernel = KernelSpec {
            name: get_str(&map, "kernel")?.to_string(),
            method,
            radius: get_u64(&map, "radius")? as usize,
            elem_bytes: get_u64(&map, "elem_bytes")? as usize,
            flops_per_point: get_u64(&map, "flops")? as usize,
            streamed_inputs: get_u64(&map, "streamed")? as usize,
            coeff_inputs: get_u64(&map, "coeff")? as usize,
            outputs: get_u64(&map, "outputs")? as usize,
        };
        let (lx, ly, lz) = (
            get_u64(&map, "lx")? as usize,
            get_u64(&map, "ly")? as usize,
            get_u64(&map, "lz")? as usize,
        );
        if lx == 0 || ly == 0 || lz == 0 {
            return Err(RecordError::Malformed("zero grid dimension"));
        }
        let tuner = TunerKind::from_parts(
            get_str(&map, "tuner")?,
            [
                get_hex(&map, "tp0")?,
                get_hex(&map, "tp1")?,
                get_hex(&map, "tp2")?,
            ],
        )
        .ok_or(RecordError::Malformed("unknown tuner label"))?;
        let key = TuneKey::from_parts(
            get_str(&map, "dev")?.to_string(),
            get_hex(&map, "dev_fp")?,
            kernel,
            GridDims::new(lx, ly, lz),
            tuner,
            get_u64(&map, "seed")?,
            get_hex(&map, "space_fp")?,
        );

        // Self-consistency: the stored hash must equal the recomputed
        // one, or the key layout changed since this record was written.
        if key.stable_hash() != get_hex(&map, "key")? {
            return Err(RecordError::KeyMismatch);
        }

        let (tx, ty, rx, ry) = (
            get_u64(&map, "tx")? as usize,
            get_u64(&map, "ty")? as usize,
            get_u64(&map, "rx")? as usize,
            get_u64(&map, "ry")? as usize,
        );
        if tx == 0 || ty == 0 || rx == 0 || ry == 0 {
            return Err(RecordError::Malformed("zero blocking factor"));
        }
        Ok(TuneRecord {
            key,
            best: LaunchConfig::new(tx, ty, rx, ry),
            mpoints: f64::from_bits(get_hex(&map, "mp_bits")?),
            evaluated: get_u64(&map, "evaluated")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use inplane_core::{Method, Variant};
    use stencil_autotune::ParameterSpace;
    use stencil_grid::Precision;

    fn record() -> TuneRecord {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 64);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        TuneRecord {
            key: TuneKey::new(&dev, &k, dims, &space, TunerKind::model_based(5.0), 7),
            best: LaunchConfig::new(64, 4, 2, 1),
            mpoints: 1234.567891234,
            evaluated: 42,
        }
    }

    #[test]
    fn jsonl_round_trip_is_bit_exact() {
        let rec = record();
        let line = rec.to_jsonl();
        let back = TuneRecord::from_jsonl(&line).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.mpoints.to_bits(), rec.mpoints.to_bits());
        assert_eq!(back.key.stable_hash(), rec.key.stable_hash());
    }

    #[test]
    fn truncated_lines_are_malformed_not_panics() {
        let line = record().to_jsonl();
        for cut in [0, 1, 7, 8, 20, 30, 31, 32, line.len() / 2, line.len() - 1] {
            let torn = &line[..cut];
            match TuneRecord::from_jsonl(torn) {
                Err(RecordError::Malformed(_)) | Err(RecordError::Checksum) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let line = record().to_jsonl();
        // Flip a digit inside the payload (well past the framing).
        let idx = line.find("\"evaluated\":").unwrap() + "\"evaluated\":".len();
        let mut bytes = line.into_bytes();
        bytes[idx] = if bytes[idx] == b'9' { b'8' } else { b'9' };
        let tampered = String::from_utf8(bytes).unwrap();
        assert_eq!(
            TuneRecord::from_jsonl(&tampered),
            Err(RecordError::Checksum)
        );
    }

    #[test]
    fn stale_schema_is_reported_as_stale() {
        let rec = record();
        let line = rec.to_jsonl();
        // Re-frame a payload claiming a different schema version with a
        // *valid* checksum: only the version gate may reject it.
        let payload_start = CRC_PREFIX.len() + 16 + REC_INFIX.len();
        let payload = &line[payload_start..line.len() - 1];
        let old = payload.replacen("{\"v\":1,", "{\"v\":0,", 1);
        let reframed = format!(
            "{CRC_PREFIX}{:016x}{REC_INFIX}{old}}}",
            fnv1a(old.as_bytes())
        );
        let err = TuneRecord::from_jsonl(&reframed).unwrap_err();
        assert_eq!(err, RecordError::StaleSchema(0));
        assert!(err.is_stale());
    }

    #[test]
    fn inconsistent_key_hash_is_rejected() {
        let line = record().to_jsonl();
        // Change a hashed field (seed) but keep the stored key hash;
        // re-checksum so only the key check can catch it.
        let payload_start = CRC_PREFIX.len() + 16 + REC_INFIX.len();
        let payload = &line[payload_start..line.len() - 1];
        let edited = payload.replacen("\"seed\":7,", "\"seed\":8,", 1);
        assert_ne!(edited, payload);
        let reframed = format!(
            "{CRC_PREFIX}{:016x}{REC_INFIX}{edited}}}",
            fnv1a(edited.as_bytes())
        );
        assert_eq!(
            TuneRecord::from_jsonl(&reframed),
            Err(RecordError::KeyMismatch)
        );
    }
}
