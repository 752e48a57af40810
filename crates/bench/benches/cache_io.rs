//! Criterion microbenchmark for a warm result-cache hit, split into its
//! parts: computing the point's address (`point_key`), reading the entry
//! file (`entry_read`), the whole warm lookup (`load_point_warm`: read,
//! key check and decode), and the statistics codec alone in both
//! directions (`stats_from_json`, `stats_to_json`).
//!
//! The entry is the stored point in `tests/fixtures/point_entry_v1.json`
//! (a CARF machine with the value oracle on, so every field is populated),
//! which keeps the benchmark free of simulation.

use carf_bench::cache::{point_key, ResultCache};
use carf_bench::parallel::json_field;
use carf_bench::statsio::{stats_from_json, stats_to_json};
use carf_bench::Budget;
use carf_core::CarfParams;
use carf_sim::SimConfig;
use carf_workloads::Suite;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const POINT_ENTRY: &str = include_str!("../../../tests/fixtures/point_entry_v1.json");

fn bench_cache_io(c: &mut Criterion) {
    let config = SimConfig::paper_carf(CarfParams::paper_default());
    let budget = Budget::quick();
    let stats_text = json_field(POINT_ENTRY, "stats").expect("fixture has stats");
    let stats = stats_from_json(&stats_text).expect("fixture decodes");

    let dir = std::env::temp_dir().join(format!("carf-cache-io-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::at(dir);
    let key = u128::from_str_radix(&json_field(POINT_ENTRY, "key").expect("fixture has a key"), 16)
        .expect("hex key");
    let path = cache.entry_path(key);
    std::fs::create_dir_all(path.parent().expect("sharded path")).expect("cache dir");
    std::fs::write(&path, POINT_ENTRY).expect("write entry");
    assert!(cache.load_point(key).is_some(), "the entry is a hit");

    let mut group = c.benchmark_group("cache_io");
    group.sample_size(20);
    group.bench_function("point_key", |b| {
        b.iter(|| black_box(point_key(&config, Suite::Int, black_box("hash_table"), &budget)))
    });
    group.bench_function("entry_read", |b| {
        b.iter(|| black_box(std::fs::read_to_string(&path).ok()))
    });
    group.bench_function("load_point_warm", |b| b.iter(|| black_box(cache.load_point(key))));
    group.bench_function("stats_from_json", |b| {
        b.iter(|| black_box(stats_from_json(black_box(&stats_text)).ok()))
    });
    group.bench_function("stats_to_json", |b| b.iter(|| black_box(stats_to_json(&stats))));
    group.finish();
    let _ = std::fs::remove_dir_all(cache.dir());
}

criterion_group!(benches, bench_cache_io);
criterion_main!(benches);
