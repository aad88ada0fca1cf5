//! An exact histogram scraped while it records is still one multiset:
//! its count, sum, minimum and maximum agree with its buckets in every
//! snapshot, not only once recording stops.
//!
//! Two threads record and a third scrapes. Every recorded value has its
//! own power-of-two bucket (its bit length), so each snapshot's buckets
//! say exactly how many of each value it holds, and the count, sum,
//! minimum and maximum it reports must follow from them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use hbmd_obs::metrics::HistogramSnapshot;
use hbmd_obs::Registry;

/// What each recorder records, in turn: values below and above the
/// dense range, each alone in its bit-length bucket.
const RECORDED: [&[u64]; 2] = [&[0, 1, 5, 100], &[3, 200, 3000]];

const ROUNDS: usize = 20_000;

/// The value whose bit length is `bits`, among the recorded ones.
fn value_of(bits: usize) -> u64 {
    RECORDED
        .iter()
        .flat_map(|values| values.iter())
        .copied()
        .find(|&v| (u64::BITS - v.leading_zeros()) as usize == bits)
        .unwrap_or_else(|| panic!("no recorded value has bit length {bits}"))
}

/// Assert `snapshot` is self-consistent; returns its count.
fn assert_consistent(snapshot: &HistogramSnapshot) -> u64 {
    let held: Vec<(u64, u64)> = snapshot
        .buckets
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(bits, &n)| (value_of(bits), n))
        .collect();
    let count: u64 = held.iter().map(|&(_, n)| n).sum();
    let sum: u64 = held.iter().map(|&(v, n)| v * n).sum();
    assert_eq!(snapshot.count, count, "count vs buckets: {snapshot:?}");
    assert_eq!(snapshot.sum, sum, "sum vs buckets: {snapshot:?}");
    let (min, max) = (
        held.iter().map(|&(v, _)| v).min().unwrap_or(0),
        held.iter().map(|&(v, _)| v).max().unwrap_or(0),
    );
    assert_eq!(snapshot.min, min, "min vs buckets: {snapshot:?}");
    assert_eq!(snapshot.max, max, "max vs buckets: {snapshot:?}");
    count
}

#[test]
fn every_scrape_of_an_exact_histogram_matches_its_buckets() {
    let registry = Arc::new(Registry::new());
    let histogram = registry.histogram("scraped");
    let empty = registry.histogram("empty");
    let running = Arc::new(AtomicUsize::new(RECORDED.len()));
    let recorders: Vec<_> = RECORDED
        .iter()
        .map(|&values| {
            let (histogram, running) = (Arc::clone(&histogram), Arc::clone(&running));
            thread::spawn(move || {
                for _ in 0..ROUNDS {
                    for &value in values {
                        histogram.record(value);
                    }
                }
                running.fetch_sub(1, Ordering::Release);
            })
        })
        .collect();
    let scraper = {
        let (registry, running) = (Arc::clone(&registry), Arc::clone(&running));
        thread::spawn(move || {
            let mut scrapes = 0usize;
            let mut last = 0u64;
            loop {
                let done = running.load(Ordering::Acquire) == 0;
                let snapshot = registry.snapshot();
                let scraped = snapshot.histogram("scraped", &[]).expect("registered");
                let count = assert_consistent(scraped);
                assert!(count >= last, "count fell from {last} to {count}");
                last = count;
                let empty = snapshot.histogram("empty", &[]).expect("registered");
                assert_eq!(
                    (empty.count, empty.sum, empty.min, empty.max),
                    (0, 0, 0, 0),
                    "empty histogram: {empty:?}"
                );
                scrapes += 1;
                if done {
                    return (scrapes, count);
                }
            }
        })
    };
    for recorder in recorders {
        recorder.join().expect("recorder");
    }
    let (scrapes, count) = scraper.join().expect("scraper");
    let recorded: usize = RECORDED.iter().map(|values| values.len() * ROUNDS).sum();
    assert_eq!(count, recorded as u64, "after {scrapes} scrapes");
    assert_eq!(empty.count(), 0);
    assert_eq!(histogram.count(), recorded as u64);
}
