//! Reading cache entries: an entry written by an earlier build is still
//! served bit-exactly, and a damaged entry is a miss, never a panic.
//!
//! `fixtures/point_entry_v1.json` is a point entry stored by the cache as
//! it was before entries were read in one pass (a CARF machine with the
//! value oracle on, so every statistics field is populated). It must keep
//! loading, and its decoded statistics must re-encode to the very bytes
//! on disk.

use carf_bench::cache::{derived_key, multi_key, MultiPoint, MultiThreadRecord, ResultCache};
use carf_bench::parallel::json_field;
use carf_bench::statsio::stats_to_json;
use carf_bench::Budget;
use carf_core::CarfParams;
use carf_sim::{SharingPolicy, SimConfig, SimStats};
use std::path::Path;

const POINT_ENTRY_V1: &str = include_str!("fixtures/point_entry_v1.json");

fn temp_cache(tag: &str) -> ResultCache {
    let dir = std::env::temp_dir().join(format!("carf-entries-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultCache::at(dir)
}

fn entry_key(text: &str) -> u128 {
    u128::from_str_radix(&json_field(text, "key").expect("entry has a key"), 16).expect("hex key")
}

fn put(path: &Path, bytes: &[u8]) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn an_entry_from_an_earlier_build_is_served_bit_exactly() {
    let cache = temp_cache("v1");
    let key = entry_key(POINT_ENTRY_V1);
    put(&cache.entry_path(key), POINT_ENTRY_V1.as_bytes());
    let stats = cache.load_point(key).expect("the stored entry is a hit");
    let stored = json_field(POINT_ENTRY_V1, "stats").unwrap();
    assert_eq!(stats_to_json(&stats), stored, "decoded statistics re-encode byte-identically");
    assert!(stats.oracle.snapshots > 0 && !stats.long_occupancy_hist.is_empty());
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// One stored entry of each kind: (key, loader outcome is a hit).
fn stored_entries(cache: &ResultCache) -> Vec<(u128, &'static str)> {
    let cfg = SimConfig::paper_carf(CarfParams::paper_default());
    let budget = Budget::quick();

    let point = entry_key(POINT_ENTRY_V1);
    put(&cache.entry_path(point), POINT_ENTRY_V1.as_bytes());

    let derived = derived_key("stall_share", &cfg, &budget);
    cache.store_derived(derived, "stall_share", &cfg, &budget, 0.1 + 0.2);

    let workload =
        |name: &str| carf_workloads::all_workloads().into_iter().find(|w| w.name == name).unwrap();
    let multi_point = MultiPoint {
        label: "pointer_chase+hash_table".into(),
        contexts: vec![(cfg.clone(), workload("pointer_chase")), (cfg, workload("hash_table"))],
        policy: SharingPolicy::shared_long(48),
        max_cycles: 2_000_000,
        per_thread_insts: 3_000,
    };
    let multi = multi_key(&multi_point, &budget);
    let threads = [
        MultiThreadRecord { committed: 3_000, cycles: 4_321, long_guard_stall_cycles: 17 },
        MultiThreadRecord { committed: 2_999, cycles: 5_000, long_guard_stall_cycles: 0 },
    ];
    cache.store_multi(multi, &multi_point, &budget, &threads);
    vec![(point, "point"), (derived, "derived"), (multi, "multi")]
}

fn loads(cache: &ResultCache, key: u128, kind: &str) -> bool {
    match kind {
        "point" => cache.load_point(key).is_some(),
        "derived" => cache.load_derived(key).is_some(),
        "multi" => cache.load_multi(key).is_some(),
        _ => unreachable!(),
    }
}

#[test]
fn every_proper_prefix_of_an_entry_is_a_miss() {
    let cache = temp_cache("prefix");
    for (key, kind) in stored_entries(&cache) {
        let path = cache.entry_path(key);
        let whole = std::fs::read(&path).unwrap();
        assert!(loads(&cache, key, kind), "{kind}: the whole entry is a hit");
        for cut in 0..whole.len() {
            put(&path, &whole[..cut]);
            assert!(!loads(&cache, key, kind), "{kind}: prefix of {cut} bytes loaded");
            // Re-terminated with a newline, a cut entry is still incomplete:
            // its object never closes.
            if cut + 1 < whole.len() {
                let mut torn = whole[..cut].to_vec();
                torn.push(b'\n');
                put(&path, &torn);
                assert!(!loads(&cache, key, kind), "{kind}: newline-ended prefix {cut} loaded");
            }
        }
        put(&path, &whole);
        assert!(loads(&cache, key, kind), "{kind}: restored entry is a hit again");
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn corrupted_bytes_never_panic_a_load() {
    let cache = temp_cache("bytes");
    for (key, kind) in stored_entries(&cache) {
        let path = cache.entry_path(key);
        let whole = std::fs::read(&path).unwrap();
        for i in 0..whole.len() {
            for b in [b'"', b'{', b'}', b'[', b']', b',', b'\\', 0xc3] {
                let mut bad = whole.clone();
                bad[i] = b;
                put(&path, &bad);
                let _ = loads(&cache, key, kind);
            }
            // A two-byte character in place of one byte keeps the file
            // valid UTF-8, so the load gets past decoding into the scanner.
            let mut wide = whole[..i].to_vec();
            wide.extend_from_slice("é".as_bytes());
            wide.extend_from_slice(&whole[i + 1..]);
            put(&path, &wide);
            let _ = loads(&cache, key, kind);
        }
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn an_entry_filed_under_another_key_is_a_miss() {
    let cache = temp_cache("misfiled");
    for (key, kind) in stored_entries(&cache) {
        let text = std::fs::read_to_string(cache.entry_path(key)).unwrap();
        let other = key ^ 1;
        put(&cache.entry_path(other), text.as_bytes());
        assert!(loads(&cache, key, kind), "{kind}: filed correctly, a hit");
        assert!(!loads(&cache, other, kind), "{kind}: key field names another key");
    }
    // The same holds for an entry whose key field was edited in place.
    let stats_key = entry_key(POINT_ENTRY_V1);
    let hex = format!("{stats_key:032x}");
    let edited = POINT_ENTRY_V1.replacen(&hex, &format!("{:032x}", stats_key ^ 2), 1);
    put(&cache.entry_path(stats_key), edited.as_bytes());
    assert_eq!(cache.load_point(stats_key), None::<SimStats>);
    let _ = std::fs::remove_dir_all(cache.dir());
}
