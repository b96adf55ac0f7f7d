//! Effective-ring formation rules — Fig. 5 of the paper.
//!
//! During effective-address calculation the processor maintains in
//! `TPR.RING` the *highest-numbered* (least privileged) ring from which
//! any procedure of the same process could have influenced the address:
//!
//! 1. `TPR.RING` starts at the current ring of execution.
//! 2. If the instruction addresses its operand relative to `PRn`,
//!    `TPR.RING := max(TPR.RING, PRn.RING)`.
//! 3. Each time an indirect word is retrieved,
//!    `TPR.RING := max(TPR.RING, IND.RING, SDW.R1 of the segment
//!    containing the indirect word)` — `SDW.R1` being the top of that
//!    segment's write bracket, i.e. the least privileged ring that could
//!    have altered the indirect word.
//!
//! The functions here are pure; `ring-cpu::ea` drives them from the
//! instruction cycle. The two booleans on [`EffectiveRingRules`] exist
//! solely for the T6 ablation: disabling either reproduces the weaker
//! 1969-thesis design and re-admits the confused-deputy attack the tests
//! demonstrate.

use crate::ring::Ring;

/// Which contributions are folded into the effective ring.
///
/// The full paper design enables all three; the ablation benches
/// disable them to measure what each rule is worth. The all-off
/// configuration models the 1969-thesis design before Daley's addition
/// of "ring numbers to indirect words and the processor pointer
/// registers".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EffectiveRingRules {
    /// Fold `PRn.RING` from the base pointer register.
    pub use_pr_ring: bool,
    /// Fold `IND.RING` from each indirect word.
    pub use_ind_ring: bool,
    /// Fold `SDW.R1` of each segment an indirect word is fetched from.
    pub use_write_bracket: bool,
}

impl EffectiveRingRules {
    /// The complete design described in the paper.
    pub const PAPER: EffectiveRingRules = EffectiveRingRules {
        use_pr_ring: true,
        use_ind_ring: true,
        use_write_bracket: true,
    };

    /// The weakened design with no ring provenance tracking at all
    /// (ablation baseline; the 1969 thesis).
    pub const NO_IND_TRACKING: EffectiveRingRules = EffectiveRingRules {
        use_pr_ring: false,
        use_ind_ring: false,
        use_write_bracket: false,
    };
}

impl Default for EffectiveRingRules {
    fn default() -> Self {
        EffectiveRingRules::PAPER
    }
}

/// Step 2: folds a pointer-register ring into the effective ring,
/// subject to `rules`.
#[inline]
pub fn fold_pr(current: Ring, pr_ring: Ring, rules: EffectiveRingRules) -> Ring {
    if rules.use_pr_ring {
        current.least_privileged(pr_ring)
    } else {
        current
    }
}

/// Step 3: folds an indirect word's ring and its containing segment's
/// write-bracket top (`SDW.R1`) into the effective ring, subject to
/// `rules`.
#[inline]
pub fn fold_indirect(
    current: Ring,
    ind_ring: Ring,
    write_bracket_top: Ring,
    rules: EffectiveRingRules,
) -> Ring {
    let mut r = current;
    if rules.use_ind_ring {
        r = r.least_privileged(ind_ring);
    }
    if rules.use_write_bracket {
        r = r.least_privileged(write_bracket_top);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdw::SdwBuilder;

    #[test]
    fn pr_fold_is_max() {
        let rules = EffectiveRingRules::PAPER;
        assert_eq!(fold_pr(Ring::R4, Ring::R2, rules), Ring::R4);
        assert_eq!(fold_pr(Ring::R2, Ring::R6, rules), Ring::R6);
        assert_eq!(fold_pr(Ring::R3, Ring::R3, rules), Ring::R3);
    }

    #[test]
    fn pr_fold_disabled_keeps_current_ring() {
        let rules = EffectiveRingRules::NO_IND_TRACKING;
        assert_eq!(fold_pr(Ring::R2, Ring::R6, rules), Ring::R2);
    }

    #[test]
    fn indirect_fold_takes_all_three_sources() {
        let sdw = SdwBuilder::data(Ring::R5, Ring::R5).build(); // R1 = 5
        let r = fold_indirect(Ring::R1, Ring::R3, sdw.r1, EffectiveRingRules::PAPER);
        assert_eq!(r, Ring::R5, "write-bracket top dominates");
        let sdw2 = SdwBuilder::data(Ring::R0, Ring::R0).build();
        let r = fold_indirect(Ring::R1, Ring::R6, sdw2.r1, EffectiveRingRules::PAPER);
        assert_eq!(r, Ring::R6, "indirect-word ring dominates");
        let r = fold_indirect(Ring::R7, Ring::R0, sdw2.r1, EffectiveRingRules::PAPER);
        assert_eq!(r, Ring::R7, "current effective ring dominates");
    }

    #[test]
    fn ablated_rules_drop_contributions() {
        let sdw = SdwBuilder::data(Ring::R5, Ring::R5).build();
        let r = fold_indirect(
            Ring::R1,
            Ring::R6,
            sdw.r1,
            EffectiveRingRules::NO_IND_TRACKING,
        );
        assert_eq!(r, Ring::R1, "weakened design ignores both tamper channels");
        let only_ind = EffectiveRingRules {
            use_pr_ring: false,
            use_ind_ring: true,
            use_write_bracket: false,
        };
        assert_eq!(
            fold_indirect(Ring::R1, Ring::R6, sdw.r1, only_ind),
            Ring::R6
        );
        let only_wb = EffectiveRingRules {
            use_pr_ring: false,
            use_ind_ring: false,
            use_write_bracket: true,
        };
        assert_eq!(fold_indirect(Ring::R1, Ring::R6, sdw.r1, only_wb), Ring::R5);
    }

    #[test]
    fn folding_never_lowers_the_effective_ring() {
        let sdw = SdwBuilder::data(Ring::R0, Ring::R0).build();
        for cur in Ring::all() {
            for ind in Ring::all() {
                let r = fold_indirect(cur, ind, sdw.r1, EffectiveRingRules::PAPER);
                assert!(r >= cur);
                assert!(r >= ind);
            }
        }
    }
}
