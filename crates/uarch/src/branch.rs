/// Sizing of the tournament predictor and its branch target buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchPredictorConfig {
    /// log2 of each pattern-history-table's entry count (bimodal,
    /// gshare and chooser tables share this size).
    pub pht_bits: u32,
    /// Global-history length in branches (gshare component).
    pub history_bits: u32,
    /// log2 of the BTB entry count.
    pub btb_bits: u32,
}

impl BranchPredictorConfig {
    /// Haswell-shaped sizing: 4096-entry tables, 12-bit history,
    /// 1024-entry BTB.
    pub fn haswell() -> BranchPredictorConfig {
        BranchPredictorConfig {
            pht_bits: 12,
            history_bits: 12,
            btb_bits: 10,
        }
    }
}

impl Default for BranchPredictorConfig {
    fn default() -> BranchPredictorConfig {
        BranchPredictorConfig::haswell()
    }
}

/// Outcome of predicting one branch, after the predictor has been
/// trained on the actual direction and target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchOutcome {
    /// The predicted direction disagreed with the actual direction, or
    /// the direction was right but the target was unknown/stale.
    pub mispredicted: bool,
    /// The BTB had no entry for the branch PC (a "branch-load miss").
    pub btb_miss: bool,
}

/// A tournament direction predictor (per-PC bimodal + gshare, with a
/// per-PC chooser) and a direct-mapped branch target buffer.
///
/// The bimodal component captures per-site stable directions; the gshare
/// component captures history-correlated patterns; the chooser learns,
/// per branch site, which component to trust — the structure of the
/// Alpha 21264/modern-Intel front end.
///
/// Each predicted branch performs one BTB read — the microarchitectural
/// source of the `branch-loads` event; a missing entry raises
/// `branch-load-misses`. The BTB is two arrays, tags and targets, with
/// `tag + 1` stored so that 0 marks an empty entry. Prediction and
/// training take no data-dependent branch: the counters, the chooser
/// and the BTB entry are all updated with arithmetic on the outcome.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{BranchPredictor, BranchPredictorConfig};
///
/// let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
/// // A loop branch taken every time becomes predictable quickly.
/// let mut late_mispredicts = 0;
/// for i in 0..1000 {
///     let outcome = bp.predict_and_train(0x400_000, true, 0x400_040);
///     if i >= 100 && outcome.mispredicted {
///         late_mispredicts += 1;
///     }
/// }
/// assert_eq!(late_mispredicts, 0);
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    /// 2-bit saturating counters indexed by PC.
    bimodal: Vec<u8>,
    /// 2-bit saturating counters indexed by PC ^ history.
    gshare: Vec<u8>,
    /// 2-bit chooser indexed by PC: >= 2 trusts gshare.
    chooser: Vec<u8>,
    /// Direct-mapped BTB tags plus one per entry; 0 is an empty entry.
    btb_tags: Vec<u64>,
    /// Target per BTB entry, meaningful where the tag is set.
    btb_targets: Vec<u64>,
    history: u64,
    history_mask: u64,
    pht_mask: u64,
    btb_mask: u64,
}

impl BranchPredictor {
    /// Build a predictor with the given sizing.
    pub fn new(config: BranchPredictorConfig) -> BranchPredictor {
        let pht_len = 1usize << config.pht_bits;
        let btb_len = 1usize << config.btb_bits;
        BranchPredictor {
            config,
            bimodal: vec![1; pht_len], // weakly not-taken
            gshare: vec![1; pht_len],
            chooser: vec![1; pht_len], // weakly prefer bimodal
            btb_tags: vec![0; btb_len],
            btb_targets: vec![0; btb_len],
            history: 0,
            history_mask: (1u64 << config.history_bits) - 1,
            pht_mask: (pht_len - 1) as u64,
            btb_mask: (btb_len - 1) as u64,
        }
    }

    /// Sizing this predictor was built with.
    pub fn config(&self) -> &BranchPredictorConfig {
        &self.config
    }

    /// Predict the branch at `pc`, then train on the actual `taken`
    /// direction and `target`.
    #[inline]
    pub fn predict_and_train(&mut self, pc: u64, taken: bool, target: u64) -> BranchOutcome {
        let bi_index = ((pc >> 2) & self.pht_mask) as usize;
        let gs_index = (((pc >> 2) ^ self.history) & self.pht_mask) as usize;

        let bi_taken = self.bimodal[bi_index] >= 2;
        let gs_taken = self.gshare[gs_index] >= 2;
        let use_gshare = self.chooser[bi_index] >= 2;
        let predicted_taken = (use_gshare & gs_taken) | (!use_gshare & bi_taken);

        let btb_index = ((pc >> 2) & self.btb_mask) as usize;
        let btb_key = (pc >> (2 + self.config.btb_bits)) + 1;
        let btb_hit = self.btb_tags[btb_index] == btb_key;
        let target_known = btb_hit & (self.btb_targets[btb_index] == target);

        // A taken branch whose target the BTB could not supply redirects
        // the front end just like a direction mispredict.
        let mispredicted = (predicted_taken != taken) | (taken & !target_known);

        // Train the chooser toward whichever component was right when
        // they disagreed.
        let disagree = bi_taken != gs_taken;
        let gs_right = gs_taken == taken;
        saturate(
            &mut self.chooser[bi_index],
            disagree & gs_right,
            disagree & !gs_right,
        );
        // Train both direction tables.
        saturate(&mut self.bimodal[bi_index], taken, !taken);
        saturate(&mut self.gshare[gs_index], taken, !taken);
        // Taken branches install/refresh their BTB entry; a not-taken
        // one writes back what was there.
        let (tag, known) = (self.btb_tags[btb_index], self.btb_targets[btb_index]);
        self.btb_tags[btb_index] = if taken { btb_key } else { tag };
        self.btb_targets[btb_index] = if taken { target } else { known };
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;

        BranchOutcome {
            mispredicted,
            btb_miss: !btb_hit,
        }
    }

    /// Clear tables and history.
    pub fn reset(&mut self) {
        self.bimodal.fill(1);
        self.gshare.fill(1);
        self.chooser.fill(1);
        self.btb_tags.fill(0);
        self.history = 0;
    }
}

/// Step a 2-bit saturating counter up or down (at most one of the two)
/// without a data-dependent branch.
#[inline]
fn saturate(counter: &mut u8, up: bool, down: bool) {
    let c = *counter;
    *counter = c + u8::from(up & (c < 3)) - u8::from(down & (c > 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Mispredictions among `outcomes`.
    fn mispredicts(outcomes: impl IntoIterator<Item = BranchOutcome>) -> usize {
        outcomes.into_iter().filter(|o| o.mispredicted).count()
    }

    #[test]
    fn always_taken_loop_becomes_predictable() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        for _ in 0..64 {
            bp.predict_and_train(0x1000, true, 0x2000);
        }
        let late = (0..1000).map(|_| bp.predict_and_train(0x1000, true, 0x2000));
        assert_eq!(mispredicts(late), 0, "steady-state loop mispredicts");
    }

    #[test]
    fn random_directions_mispredict_roughly_half_the_time() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        let mut rng = SmallRng::seed_from_u64(7);
        let outcomes: Vec<_> = (0..20_000u64)
            .map(|i| {
                let pc = 0x1000 + (i % 64) * 8;
                bp.predict_and_train(pc, rng.gen_bool(0.5), 0x9000)
            })
            .collect();
        let ratio = mispredicts(outcomes) as f64 / 20_000.0;
        assert!(
            (0.35..=0.65).contains(&ratio),
            "random branches should hover near 0.5 mispredict, got {ratio}"
        );
    }

    #[test]
    fn alternating_pattern_is_learned_by_history() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        let mut taken = false;
        let mut alternate = || {
            taken = !taken;
            bp.predict_and_train(0x1000, taken, 0x2000)
        };
        for _ in 0..256 {
            alternate();
        }
        let late = (0..1000).map(|_| alternate());
        assert_eq!(mispredicts(late), 0, "gshare learns T/NT alternation");
    }

    #[test]
    fn stable_per_site_directions_survive_history_noise() {
        // Sites with fixed directions, visited in a random order with a
        // random number of other branches in between: the bimodal
        // component must keep these near-perfect despite useless history.
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        let mut rng = SmallRng::seed_from_u64(21);
        let site_dir = |site: u64| !site.is_multiple_of(3);
        let mut visit = || {
            let site = rng.gen_range(0..32u64);
            bp.predict_and_train(0x1000 + site * 8, site_dir(site), 0x9000)
        };
        // Warm up.
        for _ in 0..20_000 {
            visit();
        }
        let late = (0..20_000).map(|_| visit());
        let late_ratio = mispredicts(late) as f64 / 20_000.0;
        assert!(
            late_ratio < 0.10,
            "stable sites should stay predictable, got {late_ratio}"
        );
    }

    #[test]
    fn btb_misses_on_first_sight_and_on_conflict() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig {
            pht_bits: 4,
            history_bits: 4,
            btb_bits: 2, // 4 entries, conflict-prone
        });
        let o = bp.predict_and_train(0x1000, true, 0x2000);
        assert!(o.btb_miss);
        let o = bp.predict_and_train(0x1000, true, 0x2000);
        assert!(!o.btb_miss);
        // A branch aliasing the same set with a different tag evicts it.
        let alias = 0x1000 + (4 << 2) * 1024;
        bp.predict_and_train(alias, true, 0x3000);
        let o = bp.predict_and_train(0x1000, true, 0x2000);
        assert!(o.btb_miss, "conflict eviction causes a BTB miss");
    }

    #[test]
    fn taken_branch_without_target_counts_as_mispredict() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        // Train direction to taken without installing this PC's target.
        for _ in 0..8 {
            bp.predict_and_train(0x5000, true, 0x6000);
        }
        // New target: direction right, target stale -> mispredict.
        let o = bp.predict_and_train(0x5000, true, 0x7000);
        assert!(o.mispredicted);
    }

    #[test]
    fn reset_clears_state() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        let fresh = BranchPredictor::new(BranchPredictorConfig::haswell());
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..500 {
            let pc = 0x1000 + rng.gen_range(0..64u64) * 4;
            bp.predict_and_train(pc, rng.gen_bool(0.7), 0x2000);
        }
        bp.reset();
        assert_eq!(bp.bimodal, fresh.bimodal);
        assert_eq!(bp.gshare, fresh.gshare);
        assert_eq!(bp.chooser, fresh.chooser);
        assert_eq!(bp.history, 0);
        let o = bp.predict_and_train(0x1000, true, 0x2000);
        assert!(o.btb_miss, "BTB was cleared");
    }
}
