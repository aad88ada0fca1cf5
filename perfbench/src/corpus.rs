//! The replayed window corpus: synthesized once per run, during set-up,
//! from the run's `--seed`, then replayed by every serving workload so
//! the timed part measures serving alone.

use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, Sample, SampleId};
use hbmd_perf::{FaultInjector, FaultPlan, Sampler, SamplerConfig};

/// Sources (synthetic samples) in the corpus.
pub const SOURCES: usize = 256;

/// Windows per source: the paper sampler's 16 windows of one sample.
pub const WINDOWS: usize = 16;

/// The benchmark's own class schedule: benign background with each
/// malware family in turn, so half the corpus is malicious.
const PHASES: [AppClass; 10] = [
    AppClass::Benign,
    AppClass::Worm,
    AppClass::Benign,
    AppClass::Virus,
    AppClass::Benign,
    AppClass::Trojan,
    AppClass::Benign,
    AppClass::Rootkit,
    AppClass::Benign,
    AppClass::Backdoor,
];

/// Sample ids of corpus sources start here, clear of the catalog's ids.
const ID_BASE: u32 = 50_000;

/// SplitMix64 finalizer: decorrelates neighbouring seeds and indices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fixed set of sources, each [`WINDOWS`] windows long. Stream `s`
/// at cursor `k` replays window `k % 16` of source `(s + k / 16) % n`,
/// so every stream walks the whole corpus from its own offset.
#[derive(Debug, Clone)]
pub struct Corpus {
    classes: Vec<AppClass>,
    /// Source-major: source `i` owns `windows[i * WINDOWS..][..WINDOWS]`.
    windows: Vec<FeatureVector>,
}

impl Corpus {
    /// Synthesize `sources` samples on `sampler` (forced to [`WINDOWS`]
    /// windows each) across `threads` threads. Classes and sample seeds
    /// are pure functions of `seed`.
    pub fn synthesize(
        seed: u64,
        sources: usize,
        sampler: &SamplerConfig,
        threads: usize,
    ) -> Corpus {
        let sampler = Sampler::new(SamplerConfig {
            windows_per_sample: WINDOWS,
            ..sampler.clone()
        })
        .expect("the benchmark sampler config is valid");
        let offset = mix(seed) as usize % PHASES.len();
        let classes: Vec<AppClass> = (0..sources)
            .map(|i| PHASES[(offset + i) % PHASES.len()])
            .collect();
        let mut per_source: Vec<Vec<FeatureVector>> = vec![Vec::new(); sources];
        let chunk = sources.div_ceil(threads.max(1)).max(1);
        std::thread::scope(|scope| {
            for (c, slots) in per_source.chunks_mut(chunk).enumerate() {
                let (sampler, classes) = (&sampler, &classes);
                scope.spawn(move || {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        let i = c * chunk + j;
                        let sample = Sample::generate(
                            Corpus::sample_id(i),
                            classes[i],
                            mix(seed ^ mix(i as u64)),
                        );
                        *slot = sampler.collect_sample(&sample);
                    }
                });
            }
        });
        Corpus {
            classes,
            windows: per_source.into_iter().flatten().collect(),
        }
    }

    fn sample_id(source: usize) -> SampleId {
        SampleId(ID_BASE + source as u32)
    }

    /// Every window, source-major.
    pub fn windows(&self) -> &[FeatureVector] {
        &self.windows
    }

    /// The window stream `stream` replays at `cursor`, and its
    /// ground-truth class.
    pub fn at(&self, stream: u64, cursor: u64) -> (&FeatureVector, AppClass) {
        let n = self.classes.len() as u64;
        let source = ((stream + cursor / WINDOWS as u64) % n) as usize;
        let offset = (cursor % WINDOWS as u64) as usize;
        (
            &self.windows[source * WINDOWS + offset],
            self.classes[source],
        )
    }

    /// The same corpus passed through a collection fault plan, one
    /// injector per source. Dropped and duplicated windows change a
    /// source's length; it is cycled back to [`WINDOWS`] windows (a
    /// source that lost every window reads as all-NaN, a dead counter).
    pub fn faulted(&self, plan: &FaultPlan) -> Corpus {
        let dead =
            FeatureVector::from_slice(&[f64::NAN; HpcEvent::COUNT]).expect("full-width vector");
        let windows = self
            .windows
            .chunks(WINDOWS)
            .enumerate()
            .flat_map(|(i, source)| {
                let mut injector = FaultInjector::for_sample(plan, Corpus::sample_id(i), 0);
                let survived = injector.apply(source.to_vec());
                if survived.is_empty() {
                    vec![dead.clone(); WINDOWS]
                } else {
                    survived.iter().cycle().take(WINDOWS).cloned().collect()
                }
            })
            .collect();
        Corpus {
            classes: self.classes.clone(),
            windows,
        }
    }

    /// FNV-1a over every class and window bit pattern.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.windows.len() * HpcEvent::COUNT * 8);
        for class in &self.classes {
            bytes.push(class.index() as u8);
        }
        for window in &self.windows {
            for value in window.as_slice() {
                bytes.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        }
        hbmd_obs::manifest::fnv1a_64(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Corpus {
        Corpus::synthesize(seed, 4, &SamplerConfig::fast(), 2)
    }

    #[test]
    fn corpus_digest_is_a_function_of_the_seed() {
        assert_eq!(small(7).digest(), small(7).digest());
        assert_ne!(small(7).digest(), small(8).digest());
    }

    #[test]
    fn streams_walk_sources_in_order() {
        let corpus = small(1);
        assert_eq!(corpus.windows().len(), 4 * WINDOWS);
        let (first, _) = corpus.at(1, 0);
        let (same, _) = corpus.at(0, WINDOWS as u64);
        assert_eq!(
            first, same,
            "stream 1 starts where stream 0 is at cursor 16"
        );
    }

    #[test]
    fn faulted_corpus_keeps_its_shape() {
        let corpus = small(3);
        let faulted = corpus.faulted(&FaultPlan::uniform(0.5, 3));
        assert_eq!(faulted.windows().len(), corpus.windows().len());
        assert_ne!(faulted.digest(), corpus.digest());
    }
}
