//! Property-based tests of the memory substrate.

use carf_mem::{
    Cache, CacheConfig, CacheStats, HierarchyConfig, LineState, MemoryHierarchy, PortMeter,
    SparseMemory,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// A naive true-LRU write-back cache: per set, the resident lines with
/// their dirty bits, most recently used first.
struct LruModel {
    line_bytes: u64,
    assoc: usize,
    sets: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
}

impl LruModel {
    fn new(config: CacheConfig) -> Self {
        Self {
            line_bytes: config.line_bytes as u64,
            assoc: config.assoc,
            sets: vec![Vec::new(); config.sets()],
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn access(&mut self, addr: u64, is_write: bool) -> LineState {
        let line = addr / self.line_bytes;
        let (assoc, line_bytes) = (self.assoc, self.line_bytes);
        let idx = self.set_of(line);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|(l, _)| *l == line) {
            let (_, dirty) = set.remove(pos);
            set.insert(0, (line, dirty || is_write));
            self.stats.hits += 1;
            return LineState::Hit;
        }
        self.stats.misses += 1;
        let victim = if set.len() == assoc { set.pop() } else { None };
        set.insert(0, (line, is_write));
        match victim {
            Some((v, true)) => {
                self.stats.writebacks += 1;
                LineState::MissDirtyEviction(v * line_bytes)
            }
            _ => LineState::Miss,
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        self.sets[self.set_of(line)].iter().any(|(l, _)| *l == line)
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Cache` against [`LruModel`] on streams that mostly repeat the
    /// last line (the memoized path), with fresh addresses that conflict
    /// in a small cache, reads and writes, and occasional flushes.
    #[test]
    fn cache_matches_a_naive_lru_model(
        assoc_log in 0usize..3,
        ops in proptest::collection::vec((0u8..16, 0u64..(1 << 11), any::<bool>()), 1..300),
    ) {
        // 16-byte lines, 8 sets, 1 to 4 ways.
        let assoc = 1 << assoc_log;
        let config = CacheConfig { size_bytes: 128 * assoc, assoc, line_bytes: 16, latency: 1 };
        let mut cache = Cache::new(config);
        let mut model = LruModel::new(config);
        let mut last = 0u64;
        for (kind, fresh, is_write) in ops {
            if kind == 15 {
                cache.flush();
                model.flush();
                continue;
            }
            // Nine in fifteen accesses fall in the last line accessed.
            let addr = if kind < 9 { (last & !15) | (fresh & 15) } else { fresh };
            last = addr;
            prop_assert_eq!(cache.access(addr, is_write), model.access(addr, is_write));
            prop_assert_eq!(*cache.stats(), model.stats);
            prop_assert_eq!(cache.probe(fresh), model.probe(fresh));
        }
        for addr in (0..1 << 11).step_by(16) {
            prop_assert_eq!(cache.probe(addr), model.probe(addr));
        }
    }

    #[test]
    fn sparse_memory_matches_a_hashmap_model(
        ops in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 1..200),
    ) {
        let mut mem = SparseMemory::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (addr_seed, value, is_write) in ops {
            // 8-byte aligned within a 1 MB window (keeps the model simple).
            let addr = u64::from(addr_seed % (1 << 17)) * 8;
            if is_write {
                mem.write_u64(addr, value);
                model.insert(addr, value);
            } else {
                let expected = model.get(&addr).copied().unwrap_or(0);
                prop_assert_eq!(mem.read_u64(addr), expected);
            }
        }
    }

    #[test]
    fn byte_and_word_views_agree(addr in any::<u32>(), value in any::<u64>()) {
        let addr = u64::from(addr);
        let mut mem = SparseMemory::new();
        mem.write_u64(addr, value);
        let mut rebuilt = 0u64;
        for i in 0..8 {
            rebuilt |= u64::from(mem.read_u8(addr + i)) << (8 * i);
        }
        prop_assert_eq!(rebuilt, value);
    }

    #[test]
    fn cache_hits_after_access_and_respects_capacity(
        addrs in proptest::collection::vec(0u64..(1 << 14), 1..100),
    ) {
        let config = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 32, latency: 1 };
        let mut cache = Cache::new(config);
        for addr in &addrs {
            cache.access(*addr, false);
            // Immediately after an access, the line is resident.
            prop_assert!(cache.probe(*addr));
        }
        // Residency never exceeds capacity: count distinct resident lines.
        let resident = (0u64..(1 << 14) / 32)
            .filter(|line| cache.probe(line * 32))
            .count();
        prop_assert!(resident <= 1024 / 32, "{resident} lines resident");
    }

    #[test]
    fn mru_line_survives_any_single_access(
        a in 0u64..(1 << 12),
        b in 0u64..(1 << 12),
    ) {
        let config = CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 32, latency: 1 };
        let mut cache = Cache::new(config);
        cache.access(a, false);
        cache.access(b, false);
        // b is the most recently used line: one more access anywhere can
        // evict at most the LRU way, never b.
        cache.access(a ^ 0x1000, false);
        prop_assert!(cache.probe(b));
    }

    #[test]
    fn hierarchy_latency_is_monotone_in_distance(addr in any::<u32>()) {
        let addr = u64::from(addr);
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        let cold = h.data_access(addr, false);
        let warm = h.data_access(addr, false);
        prop_assert!(cold >= warm);
        prop_assert_eq!(warm, 1); // L1 hit
    }

    #[test]
    fn port_meter_totals_are_conserved(
        limit in 1u32..8,
        requests in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut meter = PortMeter::new(limit);
        let mut granted = 0u64;
        let mut denied = 0u64;
        for new_cycle in requests {
            if new_cycle {
                meter.begin_cycle();
            }
            if meter.try_acquire() {
                granted += 1;
            } else {
                denied += 1;
            }
        }
        prop_assert_eq!(meter.total_granted(), granted);
        prop_assert_eq!(meter.total_denied(), denied);
    }

    #[test]
    fn stats_account_every_lookup(
        addrs in proptest::collection::vec(0u64..(1 << 13), 1..80),
    ) {
        let mut cache = Cache::new(CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 32, latency: 1 });
        for addr in &addrs {
            cache.access(*addr, addr % 2 == 0);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
        prop_assert!(s.writebacks <= s.misses);
    }
}
