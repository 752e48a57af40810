//! Exact, lossless [`SimStats`] serialization for the result cache and the
//! `carf-serve` wire protocol.
//!
//! The encoding is a single-line JSON object of dotted scalar fields.
//! Counters are plain integers; every `f64` is stored as its IEEE-754 bit
//! pattern (`f64::to_bits`) so a cached record deserializes **bit
//! identically** — a warm cache run must reproduce byte-identical result
//! files, so "close enough" decimal round-trips are not acceptable.
//!
//! Both directions destructure every struct exhaustively (no `..` rests):
//! adding a field to [`SimStats`] or any nested statistics type is a
//! compile error here until the codec learns about it, which is exactly
//! when the cache salt in [`crate::cache`] must be bumped.

use crate::parallel::JsonFields;
use carf_core::analysis::{GroupAccumulator, NUM_GROUPS};
use carf_core::{AccessStats, ClassCounts};
use carf_mem::{CacheStats, HierarchyStats};
use carf_sim::{BpredStats, DispatchStalls, OperandMix, OracleData, SimStats};
use std::fmt::Write as _;

/// Codec version: bumped whenever the field set or encoding changes, so a
/// stale cache entry misparses loudly instead of silently.
pub const STATS_CODEC_VERSION: u64 = 1;

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Self { out: String::from("{"), first: true }
    }

    fn raw(&mut self, key: &str, value: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        let _ = write!(self.out, "\"{key}\":{value}");
    }

    fn u64(&mut self, key: &str, v: u64) {
        self.raw(key, &v.to_string());
    }

    fn usize(&mut self, key: &str, v: usize) {
        self.raw(key, &v.to_string());
    }

    fn f64_bits(&mut self, key: &str, v: f64) {
        self.raw(key, &v.to_bits().to_string());
    }

    fn u64_array(&mut self, key: &str, vs: &[u64]) {
        let body =
            vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",");
        self.raw(key, &format!("[{body}]"));
    }

    fn class_counts(&mut self, prefix: &str, c: &ClassCounts) {
        let ClassCounts { simple, short, long } = *c;
        self.u64(&format!("{prefix}.simple"), simple);
        self.u64(&format!("{prefix}.short"), short);
        self.u64(&format!("{prefix}.long"), long);
    }

    fn access_stats(&mut self, prefix: &str, a: &AccessStats) {
        let AccessStats {
            reads,
            writes,
            total_reads,
            total_writes,
            long_write_stalls,
            short_allocs,
            short_alloc_rejects,
            short_reclaims,
            long_allocs,
            long_releases,
            capture_reuse_hits,
        } = a;
        self.class_counts(&format!("{prefix}.reads"), reads);
        self.class_counts(&format!("{prefix}.writes"), writes);
        self.u64(&format!("{prefix}.total_reads"), *total_reads);
        self.u64(&format!("{prefix}.total_writes"), *total_writes);
        self.u64(&format!("{prefix}.long_write_stalls"), *long_write_stalls);
        self.u64(&format!("{prefix}.short_allocs"), *short_allocs);
        self.u64(&format!("{prefix}.short_alloc_rejects"), *short_alloc_rejects);
        self.u64(&format!("{prefix}.short_reclaims"), *short_reclaims);
        self.u64(&format!("{prefix}.long_allocs"), *long_allocs);
        self.u64(&format!("{prefix}.long_releases"), *long_releases);
        self.u64(&format!("{prefix}.capture_reuse_hits"), *capture_reuse_hits);
    }

    fn cache_stats(&mut self, prefix: &str, c: &CacheStats) {
        let CacheStats { hits, misses, writebacks } = *c;
        self.u64(&format!("{prefix}.hits"), hits);
        self.u64(&format!("{prefix}.misses"), misses);
        self.u64(&format!("{prefix}.writebacks"), writebacks);
    }

    fn group(&mut self, key: &str, g: &GroupAccumulator) {
        let (totals, live_total, snapshots) = g.raw_parts();
        let mut flat: Vec<u64> = totals.to_vec();
        flat.push(live_total);
        flat.push(snapshots);
        self.u64_array(key, &flat);
    }
}

/// Serializes `stats` to the cache/wire encoding (one JSON object, one
/// line, no trailing newline).
pub fn stats_to_json(stats: &SimStats) -> String {
    let SimStats {
        cycles,
        committed,
        loads,
        stores,
        branches,
        fp_ops,
        fetched,
        squashed,
        mispredicts,
        deadlock_recoveries,
        long_guard_stall_cycles,
        bypassed_operands,
        rf_operands,
        zero_operands,
        wb_long_retries,
        load_replays,
        mem_dep_violations,
        dispatch_stalls,
        operand_mix,
        oracle,
        bpred,
        mem,
        int_rf,
        fp_rf,
        long_mean_live,
        long_peak_live,
        short_mean_occupancy,
        long_occupancy_hist,
        dest_class_matches,
        dest_class_total,
        stl_forwards,
        rf_read_port_denials,
        int_fu_denials,
        fp_fu_denials,
        lsq_wait_events,
        lsq_peak,
    } = stats;
    let mut w = Writer::new();
    w.u64("v", STATS_CODEC_VERSION);
    w.u64("cycles", *cycles);
    w.u64("committed", *committed);
    w.u64("loads", *loads);
    w.u64("stores", *stores);
    w.u64("branches", *branches);
    w.u64("fp_ops", *fp_ops);
    w.u64("fetched", *fetched);
    w.u64("squashed", *squashed);
    w.u64("mispredicts", *mispredicts);
    w.u64("deadlock_recoveries", *deadlock_recoveries);
    w.u64("long_guard_stall_cycles", *long_guard_stall_cycles);
    w.u64("bypassed_operands", *bypassed_operands);
    w.u64("rf_operands", *rf_operands);
    w.u64("zero_operands", *zero_operands);
    w.u64("wb_long_retries", *wb_long_retries);
    w.u64("load_replays", *load_replays);
    w.u64("mem_dep_violations", *mem_dep_violations);

    let DispatchStalls { rob, pregs, lsq, iq, checkpoints } = *dispatch_stalls;
    w.u64("dispatch_stalls.rob", rob);
    w.u64("dispatch_stalls.pregs", pregs);
    w.u64("dispatch_stalls.lsq", lsq);
    w.u64("dispatch_stalls.iq", iq);
    w.u64("dispatch_stalls.checkpoints", checkpoints);

    let OperandMix { only_simple, only_short, only_long, simple_short, simple_long, short_long } =
        *operand_mix;
    w.u64("operand_mix.only_simple", only_simple);
    w.u64("operand_mix.only_short", only_short);
    w.u64("operand_mix.only_long", only_long);
    w.u64("operand_mix.simple_short", simple_short);
    w.u64("operand_mix.simple_long", simple_long);
    w.u64("operand_mix.short_long", short_long);

    let OracleData { values, sim_d8, sim_d12, sim_d16, live_sum, snapshots } = oracle;
    w.group("oracle.values", values);
    w.group("oracle.sim_d8", sim_d8);
    w.group("oracle.sim_d12", sim_d12);
    w.group("oracle.sim_d16", sim_d16);
    w.u64("oracle.live_sum", *live_sum);
    w.u64("oracle.snapshots", *snapshots);

    let BpredStats {
        cond_predictions,
        cond_mispredicts,
        indirect_predictions,
        indirect_mispredicts,
    } = *bpred;
    w.u64("bpred.cond_predictions", cond_predictions);
    w.u64("bpred.cond_mispredicts", cond_mispredicts);
    w.u64("bpred.indirect_predictions", indirect_predictions);
    w.u64("bpred.indirect_mispredicts", indirect_mispredicts);

    let HierarchyStats { il1, dl1, l2, memory_accesses } = mem;
    w.cache_stats("mem.il1", il1);
    w.cache_stats("mem.dl1", dl1);
    w.cache_stats("mem.l2", l2);
    w.u64("mem.memory_accesses", *memory_accesses);

    w.access_stats("int_rf", int_rf);
    w.access_stats("fp_rf", fp_rf);

    w.f64_bits("long_mean_live_bits", *long_mean_live);
    w.usize("long_peak_live", *long_peak_live);
    w.f64_bits("short_mean_occupancy_bits", *short_mean_occupancy);
    w.u64_array("long_occupancy_hist", long_occupancy_hist);
    w.u64("dest_class_matches", *dest_class_matches);
    w.u64("dest_class_total", *dest_class_total);
    w.u64("stl_forwards", *stl_forwards);
    w.u64("rf_read_port_denials", *rf_read_port_denials);
    w.u64("int_fu_denials", *int_fu_denials);
    w.u64("fp_fu_denials", *fp_fu_denials);
    w.u64("lsq_wait_events", *lsq_wait_events);
    w.usize("lsq_peak", *lsq_peak);
    w.out.push('}');
    w.out
}

/// A dotted field name given as its parts (`["int_rf", "reads", "simple"]`
/// is `int_rf.reads.simple`), so nested getters match keys without
/// formatting a `String` per field.
type Name<'n> = &'n [&'n str];

fn key_is(key: &str, name: Name) -> bool {
    let mut rest = key;
    for (n, part) in name.iter().enumerate() {
        if n > 0 {
            let Some(r) = rest.strip_prefix('.') else { return false };
            rest = r;
        }
        let Some(r) = rest.strip_prefix(part) else { return false };
        rest = r;
    }
    rest.is_empty()
}

/// Reads a record's fields from its one-pass [`JsonFields`] table.
///
/// The getters ask for fields in [`stats_to_json`]'s order, so on a record
/// the encoder wrote each field is the next one in the table and is taken
/// with one key comparison. The first mismatch (fields reordered, an
/// unknown or duplicated field in between) switches the reader for good to
/// looking each field up by name from the start of the table. That keeps
/// [`json_field`](crate::parallel::json_field)'s rule that the first
/// occurrence of a key wins: the in-order cursor only ever passes over
/// fields it has consumed, each under a different name.
struct Reader<'a> {
    fields: JsonFields<'a>,
    next: usize,
    in_order: bool,
}

impl<'a> Reader<'a> {
    fn new(rec: &'a str) -> Result<Self, String> {
        let fields = JsonFields::parse(rec).ok_or("malformed statistics record")?;
        Ok(Self { fields, next: 0, in_order: true })
    }

    fn raw(&mut self, name: Name) -> Result<&'a str, String> {
        if self.in_order {
            match self.fields.as_slice().get(self.next) {
                Some(&(key, value)) if key_is(key, name) => {
                    self.next += 1;
                    return value.ok_or_else(|| missing(name));
                }
                _ => self.in_order = false,
            }
        }
        self.fields.find(|key| key_is(key, name)).ok_or_else(|| missing(name))
    }

    fn u64(&mut self, name: Name) -> Result<u64, String> {
        let raw = self.raw(name)?;
        raw.parse::<u64>().map_err(|e| format!("field `{}`: {e}", name.join(".")))
    }

    fn usize(&mut self, name: Name) -> Result<usize, String> {
        self.u64(name).map(|v| v as usize)
    }

    fn f64_bits(&mut self, name: Name) -> Result<f64, String> {
        self.u64(name).map(f64::from_bits)
    }

    fn u64_array(&mut self, name: Name) -> Result<Vec<u64>, String> {
        let raw = self.raw(name)?;
        let key = || name.join(".");
        let body = raw
            .trim()
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| format!("field `{}` is not an array: `{raw}`", key()))?;
        let body = body.trim();
        if body.is_empty() {
            return Ok(Vec::new());
        }
        body.split(',')
            .map(|v| v.trim().parse::<u64>().map_err(|e| format!("field `{}`: {e}", key())))
            .collect()
    }

    fn class_counts(&mut self, prefix: &str, group: &str) -> Result<ClassCounts, String> {
        Ok(ClassCounts {
            simple: self.u64(&[prefix, group, "simple"])?,
            short: self.u64(&[prefix, group, "short"])?,
            long: self.u64(&[prefix, group, "long"])?,
        })
    }

    fn access_stats(&mut self, prefix: &str) -> Result<AccessStats, String> {
        Ok(AccessStats {
            reads: self.class_counts(prefix, "reads")?,
            writes: self.class_counts(prefix, "writes")?,
            total_reads: self.u64(&[prefix, "total_reads"])?,
            total_writes: self.u64(&[prefix, "total_writes"])?,
            long_write_stalls: self.u64(&[prefix, "long_write_stalls"])?,
            short_allocs: self.u64(&[prefix, "short_allocs"])?,
            short_alloc_rejects: self.u64(&[prefix, "short_alloc_rejects"])?,
            short_reclaims: self.u64(&[prefix, "short_reclaims"])?,
            long_allocs: self.u64(&[prefix, "long_allocs"])?,
            long_releases: self.u64(&[prefix, "long_releases"])?,
            capture_reuse_hits: self.u64(&[prefix, "capture_reuse_hits"])?,
        })
    }

    fn cache_stats(&mut self, level: &str) -> Result<CacheStats, String> {
        Ok(CacheStats {
            hits: self.u64(&["mem", level, "hits"])?,
            misses: self.u64(&["mem", level, "misses"])?,
            writebacks: self.u64(&["mem", level, "writebacks"])?,
        })
    }

    fn group(&mut self, name: &str) -> Result<GroupAccumulator, String> {
        let flat = self.u64_array(&["oracle", name])?;
        if flat.len() != NUM_GROUPS + 2 {
            return Err(format!(
                "field `oracle.{name}` expects {} elements, got {}",
                NUM_GROUPS + 2,
                flat.len()
            ));
        }
        let mut totals = [0u64; NUM_GROUPS];
        totals.copy_from_slice(&flat[..NUM_GROUPS]);
        Ok(GroupAccumulator::from_raw_parts(totals, flat[NUM_GROUPS], flat[NUM_GROUPS + 1]))
    }

    /// Every field of a [`SimStats`], in encoder order (a struct literal
    /// evaluates its fields in the order written).
    fn stats(&mut self) -> Result<SimStats, String> {
        let v = self.u64(&["v"])?;
        if v != STATS_CODEC_VERSION {
            return Err(format!("codec version {v}, expected {STATS_CODEC_VERSION}"));
        }
        Ok(SimStats {
            cycles: self.u64(&["cycles"])?,
            committed: self.u64(&["committed"])?,
            loads: self.u64(&["loads"])?,
            stores: self.u64(&["stores"])?,
            branches: self.u64(&["branches"])?,
            fp_ops: self.u64(&["fp_ops"])?,
            fetched: self.u64(&["fetched"])?,
            squashed: self.u64(&["squashed"])?,
            mispredicts: self.u64(&["mispredicts"])?,
            deadlock_recoveries: self.u64(&["deadlock_recoveries"])?,
            long_guard_stall_cycles: self.u64(&["long_guard_stall_cycles"])?,
            bypassed_operands: self.u64(&["bypassed_operands"])?,
            rf_operands: self.u64(&["rf_operands"])?,
            zero_operands: self.u64(&["zero_operands"])?,
            wb_long_retries: self.u64(&["wb_long_retries"])?,
            load_replays: self.u64(&["load_replays"])?,
            mem_dep_violations: self.u64(&["mem_dep_violations"])?,
            dispatch_stalls: DispatchStalls {
                rob: self.u64(&["dispatch_stalls", "rob"])?,
                pregs: self.u64(&["dispatch_stalls", "pregs"])?,
                lsq: self.u64(&["dispatch_stalls", "lsq"])?,
                iq: self.u64(&["dispatch_stalls", "iq"])?,
                checkpoints: self.u64(&["dispatch_stalls", "checkpoints"])?,
            },
            operand_mix: OperandMix {
                only_simple: self.u64(&["operand_mix", "only_simple"])?,
                only_short: self.u64(&["operand_mix", "only_short"])?,
                only_long: self.u64(&["operand_mix", "only_long"])?,
                simple_short: self.u64(&["operand_mix", "simple_short"])?,
                simple_long: self.u64(&["operand_mix", "simple_long"])?,
                short_long: self.u64(&["operand_mix", "short_long"])?,
            },
            oracle: OracleData {
                values: self.group("values")?,
                sim_d8: self.group("sim_d8")?,
                sim_d12: self.group("sim_d12")?,
                sim_d16: self.group("sim_d16")?,
                live_sum: self.u64(&["oracle", "live_sum"])?,
                snapshots: self.u64(&["oracle", "snapshots"])?,
            },
            bpred: BpredStats {
                cond_predictions: self.u64(&["bpred", "cond_predictions"])?,
                cond_mispredicts: self.u64(&["bpred", "cond_mispredicts"])?,
                indirect_predictions: self.u64(&["bpred", "indirect_predictions"])?,
                indirect_mispredicts: self.u64(&["bpred", "indirect_mispredicts"])?,
            },
            mem: HierarchyStats {
                il1: self.cache_stats("il1")?,
                dl1: self.cache_stats("dl1")?,
                l2: self.cache_stats("l2")?,
                memory_accesses: self.u64(&["mem", "memory_accesses"])?,
            },
            int_rf: self.access_stats("int_rf")?,
            fp_rf: self.access_stats("fp_rf")?,
            long_mean_live: self.f64_bits(&["long_mean_live_bits"])?,
            long_peak_live: self.usize(&["long_peak_live"])?,
            short_mean_occupancy: self.f64_bits(&["short_mean_occupancy_bits"])?,
            long_occupancy_hist: self.u64_array(&["long_occupancy_hist"])?,
            dest_class_matches: self.u64(&["dest_class_matches"])?,
            dest_class_total: self.u64(&["dest_class_total"])?,
            stl_forwards: self.u64(&["stl_forwards"])?,
            rf_read_port_denials: self.u64(&["rf_read_port_denials"])?,
            int_fu_denials: self.u64(&["int_fu_denials"])?,
            fp_fu_denials: self.u64(&["fp_fu_denials"])?,
            lsq_wait_events: self.u64(&["lsq_wait_events"])?,
            lsq_peak: self.usize(&["lsq_peak"])?,
        })
    }
}

fn missing(name: Name) -> String {
    format!("missing field `{}`", name.join("."))
}

/// Deserializes a [`stats_to_json`] record, in one pass over its text
/// whatever the field order.
///
/// # Errors
///
/// A message naming the first missing or malformed field; a wrong codec
/// version fails immediately (stale cache entries are treated as misses),
/// and so does a record whose object is not well formed and closed.
pub fn stats_from_json(rec: &str) -> Result<SimStats, String> {
    Reader::new(rec)?.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_stats() -> SimStats {
        let mut s = SimStats {
            cycles: 123_456,
            committed: 200_000,
            loads: 41,
            stores: 17,
            branches: 99,
            fp_ops: 3,
            fetched: 250_000,
            squashed: 1_024,
            mispredicts: 77,
            long_mean_live: 13.625_481_9,
            long_peak_live: 48,
            short_mean_occupancy: 0.1 + 0.2, // deliberately non-representable
            long_occupancy_hist: vec![1, 0, 7, 49],
            lsq_peak: 63,
            ..SimStats::default()
        };
        s.dispatch_stalls.rob = 5;
        s.operand_mix.record(&[carf_core::ValueClass::Simple]);
        s.oracle.record(&[7, 7, 9]);
        s.bpred.cond_predictions = 1000;
        s.mem.dl1.hits = 500;
        s.mem.dl1.writebacks = 3;
        s.int_rf.reads.short = 42;
        s.int_rf.capture_reuse_hits = 9;
        s.fp_rf.total_writes = 2;
        s
    }

    #[test]
    fn round_trip_is_exact() {
        let s = busy_stats();
        let json = stats_to_json(&s);
        let back = stats_from_json(&json).expect("parse");
        assert_eq!(back, s);
        // Bit-exactness of the floats specifically.
        assert_eq!(back.short_mean_occupancy.to_bits(), s.short_mean_occupancy.to_bits());
        // And the encoding itself is stable under a second round trip.
        assert_eq!(stats_to_json(&back), json);
    }

    #[test]
    fn default_stats_round_trip() {
        let s = SimStats::default();
        assert_eq!(stats_from_json(&stats_to_json(&s)).unwrap(), s);
    }

    #[test]
    fn wrong_version_and_missing_fields_are_errors() {
        let s = SimStats::default();
        let json = stats_to_json(&s);
        let stale = json.replacen("\"v\":1", "\"v\":999", 1);
        assert!(stats_from_json(&stale).unwrap_err().contains("codec version"));
        let truncated = json.replacen("\"cycles\":0,", "", 1);
        assert!(stats_from_json(&truncated).unwrap_err().contains("cycles"));
        assert!(stats_from_json("{}").is_err());
    }

    /// Rebuilds a record from `(key, raw value)` pairs with the given
    /// separators around each colon and comma.
    fn record(fields: &[(String, String)], pad: &str) -> String {
        let body: Vec<String> =
            fields.iter().map(|(k, v)| format!("{pad}\"{k}\"{pad}:{pad}{v}{pad}")).collect();
        format!("{{{}}}", body.join(","))
    }

    fn canonical_fields(s: &SimStats) -> Vec<(String, String)> {
        let text = stats_to_json(s);
        let fields = JsonFields::parse(&text).expect("encoder output is well formed");
        fields
            .as_slice()
            .iter()
            .map(|(k, v)| (k.to_string(), v.expect("no empty values").to_string()))
            .collect()
    }

    #[test]
    fn encoder_order_decodes_on_the_in_order_path() {
        let json = stats_to_json(&busy_stats());
        let mut reader = Reader::new(&json).unwrap();
        assert_eq!(reader.stats().unwrap(), busy_stats());
        assert!(reader.in_order, "a canonical record never falls back to by-name lookup");
        assert_eq!(reader.next, reader.fields.as_slice().len(), "every field consumed in turn");
    }

    #[test]
    fn any_field_order_whitespace_and_extra_fields_decode_the_same() {
        let s = busy_stats();
        let mut fields = canonical_fields(&s);
        fields.reverse();
        fields.rotate_left(17);
        // Unknown fields, including ones whose nested or string contents
        // spell out real keys, are skipped.
        fields.insert(5, ("zz_unknown".into(), r#"[1,{"cycles":5},"x"]"#.into()));
        fields.insert(9, ("note".into(), r#""\"cycles\":7, }""#.into()));
        let shuffled = record(&fields, " \n\t ");
        let back = stats_from_json(&shuffled).expect("shuffled record decodes");
        assert_eq!(
            stats_to_json(&back),
            stats_to_json(&s),
            "bit-identical to the canonical decode"
        );

        // A duplicated field: the first occurrence wins, as with `json_field`.
        let mut dup = canonical_fields(&s);
        let at = dup.iter().position(|(k, _)| k == "cycles").unwrap();
        dup.insert(at + 1, ("cycles".into(), "1".into()));
        assert_eq!(stats_from_json(&record(&dup, "")).unwrap(), s);
        let mut early = canonical_fields(&s);
        early.insert(1, ("committed".into(), "5".into()));
        let back = stats_from_json(&record(&early, "")).unwrap();
        assert_eq!(back, SimStats { committed: 5, ..s.clone() });
        // An empty first occurrence is a missing field, not a fallback to
        // the second.
        let mut empty = canonical_fields(&s);
        empty.insert(1, ("cycles".into(), String::new()));
        assert!(stats_from_json(&record(&empty, "")).unwrap_err().contains("cycles"));
    }

    #[test]
    fn truncated_or_malformed_records_are_errors() {
        let json = stats_to_json(&busy_stats());
        for cut in 0..json.len() {
            assert!(stats_from_json(&json[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        assert!(stats_from_json(&json.replacen(",\"loads\"", ",loads", 1)).is_err());
        assert!(stats_from_json(&json.replacen("\"cycles\":", "\"cycles\" ", 1)).is_err());
    }

    /// A raw field value: zero, `u64::MAX`, NaN and `-0.0` bit patterns, or
    /// random bits.
    fn extreme(pick: u8, bits: u64) -> u64 {
        match pick {
            0 => 0,
            1 => u64::MAX,
            2 => f64::NAN.to_bits() | (bits & 0xf_ffff), // a NaN with a payload
            3 => (-0.0f64).to_bits(),
            4 => bits >> (bits % 64),
            _ => bits,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Every field of a record set to an extreme or random value, with
        /// an empty, full-size (65-bin) or random-length Long histogram:
        /// decoding and re-encoding gives back the same bytes, so no field
        /// is lost, moved or rounded.
        #[test]
        fn extreme_values_round_trip_bit_exactly(
            picks in proptest::collection::vec((0u8..6, proptest::any::<u64>()), 200..201),
            hist_len in proptest::prop_oneof![
                proptest::Just(0usize),
                proptest::Just(65usize),
                0usize..66
            ],
        ) {
            let mut words = picks.iter().map(|(p, b)| extreme(*p, *b));
            let mut fields = Vec::new();
            for (key, value) in canonical_fields(&SimStats::default()) {
                let value = if key == "v" {
                    value
                } else if value.starts_with('[') {
                    let len = if key == "long_occupancy_hist" { hist_len } else { NUM_GROUPS + 2 };
                    let items: Vec<String> = (0..len)
                        .map(|_| words.next().unwrap_or(7).to_string())
                        .collect();
                    format!("[{}]", items.join(","))
                } else {
                    words.next().unwrap_or(u64::MAX).to_string()
                };
                fields.push((key, value));
            }
            let text = record(&fields, "");
            let stats = stats_from_json(&text).expect("random record decodes");
            proptest::prop_assert_eq!(stats_to_json(&stats), text);
            proptest::prop_assert_eq!(stats.long_occupancy_hist.len(), hist_len);
        }
    }

    #[test]
    fn oracle_groups_round_trip() {
        let mut s = SimStats::default();
        s.oracle.record(&[1, 1, 1, 2, 3]);
        s.oracle.record(&[5; 20]);
        let back = stats_from_json(&stats_to_json(&s)).unwrap();
        assert_eq!(back.oracle, s.oracle);
        assert_eq!(back.oracle.values.fractions(), s.oracle.values.fractions());
    }
}
