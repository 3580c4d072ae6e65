//! Randomized invariant tests for the simulation core.
//!
//! Inputs are generated from seeded [`SimRng`] streams (the workspace has no
//! external property-testing dependency), so every case is reproducible from
//! the iteration number printed on failure.

use spotcheck_simcore::bitset::BitSet;
use spotcheck_simcore::fluid::{max_min_rates, FlowSpec, Network};
use spotcheck_simcore::queue::EventQueue;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::stats::{Ecdf, Samples};
use spotcheck_simcore::time::{SimDuration, SimTime};

const CASES: u64 = 64;

fn f64_in(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// Popping the queue always yields events in nondecreasing time order,
/// FIFO among equal times.
#[test]
fn queue_pops_sorted_stable() {
    let mut rng = SimRng::seed(0xA11CE);
    for case in 0..CASES {
        let n = rng.gen_range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: out of order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: FIFO violated among ties");
            }
        }
        assert_eq!(popped.len(), times.len(), "case {case}");
    }
}

/// The heap-backed queue pops exactly what a reference queue — a sorted
/// `(time, seq)` oracle — pops over randomized push/pop interleavings:
/// same-instant FIFO ties, engine-style `immediately()` pushes at the last
/// popped time, delays spanning microseconds to days, and pushes before
/// the last popped time.
#[test]
fn queue_backends_pop_identically() {
    let mut rng = SimRng::seed(0xD1FF);
    for case in 0..CASES {
        let mut q = EventQueue::new();
        // Oracle: pending (time, seq) -> payload; the smallest key pops.
        let mut oracle = std::collections::BTreeMap::new();
        let n_ops = rng.gen_range(10, 400);
        let mut last_pop: u64 = 0;
        let mut seq = 0u64;
        for op in 0..n_ops {
            if !oracle.is_empty() && rng.gen_bool(0.4) {
                let got = q.pop();
                let want = oracle
                    .pop_first()
                    .map(|((t, _), p): ((u64, u64), u64)| (SimTime::from_micros(t), p));
                assert_eq!(got, want, "case {case} op {op}: diverged from oracle");
                if let Some((t, _)) = got {
                    last_pop = t.as_micros();
                }
            } else {
                let t = match rng.gen_range(0, 6) {
                    0 => last_pop, // immediately(): ties at the popped instant
                    1 => last_pop + rng.gen_range(0, 64),
                    2 => last_pop + rng.gen_range(0, 100_000),
                    3 => last_pop + rng.gen_range(0, 1 << 20),
                    4 => last_pop + rng.gen_range(0, 1 << 37),
                    _ => rng.gen_range(0, last_pop + 1), // into the past
                };
                q.push(SimTime::from_micros(t), seq);
                oracle.insert((t, seq), seq);
                seq += 1;
            }
            assert_eq!(q.len(), oracle.len(), "case {case} op {op}");
            let want_peek = oracle.keys().next().map(|&(t, _)| SimTime::from_micros(t));
            assert_eq!(q.peek_time(), want_peek, "case {case} op {op}");
        }
        while let Some(((t, _), p)) = oracle.pop_first() {
            assert_eq!(
                q.pop(),
                Some((SimTime::from_micros(t), p)),
                "case {case} drain"
            );
        }
        assert_eq!(q.pop(), None, "case {case} drain");
    }
}

/// The bitset's cached popcount always matches a recount.
#[test]
fn bitset_count_is_consistent() {
    let mut rng = SimRng::seed(0xB17);
    for case in 0..CASES {
        let n_ops = rng.gen_range(0, 300) as usize;
        let mut s = BitSet::new(256);
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n_ops {
            let idx = rng.gen_range(0, 256) as usize;
            if rng.gen_bool(0.5) {
                s.set(idx);
                model.insert(idx);
            } else {
                s.clear(idx);
                model.remove(&idx);
            }
        }
        assert_eq!(s.count_ones(), model.len(), "case {case}");
        let ones: Vec<usize> = s.iter_ones().collect();
        let expect: Vec<usize> = model.into_iter().collect();
        assert_eq!(ones, expect, "case {case}");
    }
}

/// Max-min fair rates never exceed caps and never oversubscribe a link.
#[test]
fn max_min_rates_feasible() {
    let mut rng = SimRng::seed(0xF1A7);
    for case in 0..CASES {
        let cap = f64_in(&mut rng, 1.0, 1e9);
        let n = rng.gen_range(1, 20) as usize;
        let mut net = Network::new();
        let l = net.add_link(cap);
        let flows: Vec<FlowSpec> = (0..n)
            .map(|_| {
                let bytes = f64_in(&mut rng, 1.0, 1e8);
                let f = FlowSpec::new(vec![l], bytes);
                if rng.gen_bool(0.5) {
                    f.with_cap(f64_in(&mut rng, 1.0, 1e8))
                } else {
                    f
                }
            })
            .collect();
        let rates = max_min_rates(&net, &flows);
        let total: f64 = rates.iter().sum();
        assert!(
            total <= cap * (1.0 + 1e-6),
            "case {case}: oversubscribed: {total} > {cap}"
        );
        for (r, f) in rates.iter().zip(&flows) {
            assert!(*r >= 0.0, "case {case}");
            if let Some(c) = f.rate_cap_bps {
                assert!(*r <= c * (1.0 + 1e-9), "case {case}: cap violated: {r} > {c}");
            }
        }
    }
}

/// Max-min fairness is work-conserving on a single link: either the link
/// is (nearly) full or every flow is at its cap.
#[test]
fn max_min_rates_work_conserving() {
    let mut rng = SimRng::seed(0xC0156);
    for case in 0..CASES {
        let cap = f64_in(&mut rng, 1.0, 1e9);
        let n = rng.gen_range(1, 20) as usize;
        let flow_caps: Vec<f64> = (0..n).map(|_| f64_in(&mut rng, 1.0, 1e8)).collect();
        let mut net = Network::new();
        let l = net.add_link(cap);
        let flows: Vec<FlowSpec> = flow_caps
            .iter()
            .map(|&c| FlowSpec::new(vec![l], 1.0).with_cap(c))
            .collect();
        let rates = max_min_rates(&net, &flows);
        let total: f64 = rates.iter().sum();
        let all_capped = rates
            .iter()
            .zip(&flow_caps)
            .all(|(r, c)| (r - c).abs() <= c * 1e-6);
        assert!(
            total >= cap * (1.0 - 1e-6) || all_capped,
            "case {case}: not work conserving: total={total} cap={cap} rates={rates:?}"
        );
    }
}

/// ECDF is monotone, hits 0 below the minimum and 1 at/above the maximum.
#[test]
fn ecdf_properties() {
    let mut rng = SimRng::seed(0xECD);
    for case in 0..CASES {
        let n = rng.gen_range(1, 200) as usize;
        let values: Vec<f64> = (0..n).map(|_| f64_in(&mut rng, -1e6, 1e6)).collect();
        let e = Ecdf::new(values.clone());
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(e.eval(lo - 1.0), 0.0, "case {case}");
        assert_eq!(e.eval(hi), 1.0, "case {case}");
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let fx = e.eval(x);
            assert!(fx >= prev, "case {case}: ECDF not monotone");
            prev = fx;
        }
    }
}

/// Sample quantiles are bounded by min/max and ordered in p.
#[test]
fn samples_quantiles_ordered() {
    let mut rng = SimRng::seed(0x5A3);
    for case in 0..CASES {
        let n = rng.gen_range(1, 100) as usize;
        let values: Vec<f64> = (0..n).map(|_| f64_in(&mut rng, -1e6, 1e6)).collect();
        let mut s = Samples::from_values(values);
        let q25 = s.quantile(0.25).unwrap();
        let q50 = s.quantile(0.5).unwrap();
        let q75 = s.quantile(0.75).unwrap();
        assert!(s.min().unwrap() <= q25, "case {case}");
        assert!(q25 <= q50 && q50 <= q75, "case {case}");
        assert!(q75 <= s.max().unwrap(), "case {case}");
    }
}

/// A resampled step series always reports values the series contains.
#[test]
fn step_series_resample_values_exist() {
    let mut rng = SimRng::seed(0x57E9);
    for case in 0..CASES {
        let n = rng.gen_range(1, 50) as usize;
        let mut pts: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0, 10_000), f64_in(&mut rng, -100.0, 100.0)))
            .collect();
        pts.sort_by_key(|(t, _)| *t);
        pts.dedup_by_key(|(t, _)| *t);
        let series = StepSeries::from_points(
            pts.iter()
                .map(|&(t, v)| (SimTime::from_micros(t), v))
                .collect(),
        );
        let xs = series.resample(
            SimTime::ZERO,
            SimTime::from_micros(10_000),
            SimDuration::from_micros(500),
        );
        let allowed: Vec<f64> = pts.iter().map(|&(_, v)| v).collect();
        for x in xs {
            assert!(allowed.contains(&x), "case {case}: invented value {x}");
        }
    }
}

/// Forked RNG streams are reproducible for arbitrary (seed, stream) pairs.
#[test]
fn rng_fork_reproducible() {
    let mut meta = SimRng::seed(0xF02C);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let stream = meta.next_u64();
        let parent = SimRng::seed(seed);
        let mut a = parent.fork(stream);
        let mut b = parent.fork(stream);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}");
        }
    }
}
