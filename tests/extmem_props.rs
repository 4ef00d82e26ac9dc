//! Property-based soundness of the external-memory visited set
//! ([`ftcolor::checker::extmem`]): under arbitrary insert/lookup
//! interleavings, spill budgets, and forced hash collisions, the
//! disk-backed store must be observationally equivalent to a plain
//! in-RAM map — and the whole model checker running on top of it
//! must stay bit-identical to its RAM-backed twin. The lossy Bloom
//! sweep gets the complementary honesty checks: known-witness
//! instances are still falsified, and a Bloom run can never claim
//! cleanliness.

use ftcolor::checker::extmem::{BloomVisited, ExtVisited, ExtmemConfig};
use ftcolor::checker::ModelChecker;
use ftcolor::core::mis::{mis_violation, EagerMis};
use ftcolor::model::encode::CfgKey;
use ftcolor::model::inputs;
use ftcolor::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch directory per proptest case (cases run concurrently
/// within one process).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ftcolor-extmem-props-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// A synthetic key over `words` packed words. `modulus` squeezes the
/// hash domain so genuinely colliding (hash-equal, word-distinct) keys
/// occur constantly — the store must distinguish them by content.
fn synth_key(i: u64, words: usize, modulus: u64) -> CfgKey {
    let packed: Vec<u32> = (0..words)
        .map(|w| (i.wrapping_mul(31).wrapping_add(w as u64)) as u32)
        .collect();
    CfgKey {
        hash: i % modulus,
        packed: Arc::from(packed.into_boxed_slice()),
    }
}

fn coloring_safety(topo: &Topology, outs: &[Option<u64>]) -> Option<String> {
    if let Some((a, b)) = topo.first_conflict(outs) {
        return Some(format!("conflict on edge {a}-{b}"));
    }
    outs.iter()
        .flatten()
        .find(|&&c| c > 4)
        .map(|c| format!("color {c} outside palette"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The store is a drop-in for an in-RAM map under arbitrary
    /// interleavings of batched inserts and lookups, at every spill
    /// budget from "spill constantly" to "never spill", with hash
    /// collisions forced by a tiny hash modulus.
    #[test]
    fn extmem_is_observationally_a_map(
        seed in 0u64..u64::MAX / 2,
        budget in 0usize..4096,
        modulus in 1u64..24,
        rounds in 1usize..12,
    ) {
        let dir = scratch_dir("map");
        let words = 6;
        let mut store = ExtVisited::new(
            &ExtmemConfig { dir: dir.clone(), ram_budget_bytes: budget },
            words,
        ).unwrap();
        let mut reference: HashMap<CfgKey, u32> = HashMap::new();
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut next_fresh = 0u64;
        for _ in 0..rounds {
            // Insert a batch of brand-new keys (the explorer's
            // discipline: a key is inserted at most once).
            let batch = 1 + next() as usize % 40;
            let entries: Vec<(CfgKey, u32)> = (0..batch)
                .map(|_| {
                    let key = synth_key(next_fresh, words, modulus);
                    let id = next_fresh as u32;
                    next_fresh += 1;
                    (key, id)
                })
                .collect();
            reference.extend(entries.iter().cloned());
            store.insert_batch(entries).unwrap();

            // Look up a mix of present, absent, and duplicate queries.
            let probes: Vec<CfgKey> = (0..1 + next() as usize % 60)
                .map(|_| synth_key(next() % (next_fresh + 20), words, modulus))
                .collect();
            let got = store.batch_lookup(&probes).unwrap();
            for p in &probes {
                prop_assert_eq!(
                    got.get(p).copied(),
                    reference.get(p).copied(),
                    "budget={} modulus={}", budget, modulus
                );
            }
        }
        prop_assert_eq!(store.len(), reference.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end: the model checker on the disk-backed visited set
    /// is bit-identical — outcome *and* dedup bookkeeping — to the
    /// RAM-backed run, across random instances, caps, budgets, and
    /// thread counts.
    #[test]
    fn extmem_checker_is_bit_identical_to_ram(
        idseed in 0u64..u64::MAX / 2,
        n in 3usize..5,
        cap in 200usize..3_000,
        budget in 0usize..16_384,
        jobs in 1usize..5,
    ) {
        let ids = inputs::random_unique(n, 64, idseed);
        let topo = Topology::cycle(n).unwrap();
        let ram = ModelChecker::new(&FiveColoring, &topo, ids.clone())
            .with_max_configs(cap)
            .with_jobs(jobs)
            .explore(coloring_safety)
            .unwrap();
        let dir = scratch_dir("engine");
        let ext = ModelChecker::new(&FiveColoring, &topo, ids)
            .with_max_configs(cap)
            .with_jobs(jobs)
            .with_extmem(ExtmemConfig { dir: dir.clone(), ram_budget_bytes: budget })
            .explore(coloring_safety)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&ram, &ext);
        prop_assert_eq!(ram.stats.dedup_hits, ext.stats.dedup_hits);
        prop_assert_eq!(ram.stats.dedup_lookups, ext.stats.dedup_lookups);
    }

    /// The Bloom filter never forgets an inserted key (no false
    /// negatives), whatever the load factor.
    #[test]
    fn bloom_has_no_false_negatives(
        seed in 0u64..u64::MAX / 2,
        bits in 64u64..4096,
        keys in 1usize..300,
    ) {
        let mut filter = BloomVisited::new(bits);
        let inserted: Vec<CfgKey> = (0..keys as u64)
            .map(|i| synth_key(i.wrapping_add(seed), 6, u64::MAX))
            .collect();
        for k in &inserted {
            filter.insert(k);
        }
        for k in &inserted {
            prop_assert!(filter.contains(k), "inserted keys must stay present");
        }
        prop_assert_eq!(filter.insertions(), keys as u64);
    }
}

/// Known-witness fixture: the eager-MIS strawman violates safety on C4.
/// A generously sized Bloom sweep must still find the violation, the
/// witness must replay concretely, and — crucially — the run must brand
/// itself lossy and refuse to count as clean.
#[test]
fn bloom_never_falsely_reports_clean_on_known_witnesses() {
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![5u64, 9, 2, 1];
    let exact = ModelChecker::new(&EagerMis, &topo, ids.clone())
        .explore(mis_violation)
        .unwrap();
    let lossy = ModelChecker::new(&EagerMis, &topo, ids.clone())
        .with_bloom(1 << 22)
        .explore(mis_violation)
        .unwrap();
    assert!(lossy.lossy);
    assert!(!lossy.clean(), "a Bloom run can never be clean");
    let v = lossy
        .safety_violation
        .as_ref()
        .expect("the known violation must survive the sweep");
    assert_eq!(exact.safety_violation.as_ref(), Some(v));
    // The witness replays on a raw execution.
    let mut exec = Execution::new(&EagerMis, &topo, ids);
    for set in &v.schedule {
        exec.step_with(set);
    }
    let replayed = mis_violation(&topo, exec.outputs());
    assert_eq!(replayed, Some(v.description.clone()));
}

/// Even a run that finds nothing must refuse to call itself clean under
/// Bloom — false positives may have pruned real states.
#[test]
fn clean_instances_stay_unclaimed_under_bloom() {
    let topo = Topology::cycle(3).unwrap();
    let lossy = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
        .with_bloom(1 << 20)
        .explore(|_, _| None)
        .unwrap();
    assert!(lossy.safety_violation.is_none() && lossy.livelock.is_none());
    assert!(lossy.lossy && !lossy.clean());
    let exact = ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
        .explore(|_, _| None)
        .unwrap();
    assert!(exact.clean(), "the sound run may certify cleanliness");
    assert!(lossy.stats.bloom_fp_per_million < 1_000, "honest budget");
}
