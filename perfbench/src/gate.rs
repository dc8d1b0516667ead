//! The correctness gate every campaign passes through, and the tally
//! behind `attempted`, `failed` and `ops_failed_frac`.

/// What a finished campaign claims, next to what the gate checks it
/// against.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Best objective the campaign reported.
    pub reported_best: f64,
    /// The evaluator's value for the reported best configuration.
    pub evaluator_value: f64,
    /// The exhaustive best of a dataset, or the analytic minimum.
    pub known_best: f64,
}

/// Passes when the reported best is exactly the evaluator's value for the
/// reported configuration and is not better than the known best.
pub fn check(claim: Claim) -> Result<(), String> {
    if claim.reported_best.to_bits() != claim.evaluator_value.to_bits() {
        return Err(format!(
            "reported best {} but the evaluator gives {} for that configuration",
            claim.reported_best, claim.evaluator_value
        ));
    }
    if claim.reported_best.is_nan() || claim.reported_best < claim.known_best {
        return Err(format!(
            "reported best {} beats the known best {}",
            claim.reported_best, claim.known_best
        ));
    }
    Ok(())
}

/// Passes when two runs of one seed produced the same history digest.
pub fn same_digest(first: u64, rerun: u64) -> Result<(), String> {
    if first == rerun {
        Ok(())
    } else {
        Err(format!(
            "rerun of one seed changed the history digest: {first:016x} vs {rerun:016x}"
        ))
    }
}

/// Passes when the CLI reported the same best result, bit for bit.
pub fn same_best(cli: &(String, f64), ours: &(String, f64)) -> Result<(), String> {
    if cli.0 == ours.0 && cli.1.to_bits() == ours.1.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "in-process best {ours:?} differs from the CLI's {cli:?}"
        ))
    }
}

/// Campaigns attempted and failed (errored or failed a check). Faults
/// injected on purpose are not failures here.
#[derive(Debug, Default)]
pub struct Tally {
    /// Campaigns run.
    pub attempted: u64,
    /// Campaigns that errored or failed the gate.
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one campaign with its verdict.
    pub fn record(&mut self, verdict: &Result<(), String>) {
        self.attempted += 1;
        self.fail(verdict);
    }

    /// Marks an already-counted campaign as failed when `verdict` is an
    /// error (a check made after the campaign ran, such as a rerun).
    pub fn fail(&mut self, verdict: &Result<(), String>) {
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(reason.clone());
            }
        }
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn honest() -> Claim {
        Claim {
            reported_best: 4800.0,
            evaluator_value: 4800.0,
            known_best: 4700.0,
        }
    }

    #[test]
    fn an_honest_campaign_passes() {
        let mut tally = Tally::default();
        tally.record(&check(honest()));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        assert_eq!(tally.fail_frac(), 0.0);
    }

    #[test]
    fn a_tampered_best_is_counted_in_ops_failed_frac() {
        let mut tally = Tally::default();
        tally.record(&check(honest()));
        // The campaign reports a better objective than its configuration
        // actually has.
        let tampered = Claim {
            reported_best: 4750.0,
            ..honest()
        };
        tally.record(&check(tampered));
        // A best below the exhaustive optimum is impossible.
        let impossible = Claim {
            reported_best: 4600.0,
            evaluator_value: 4600.0,
            ..honest()
        };
        tally.record(&check(impossible));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.fail_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(tally.reasons.len(), 2);
    }

    #[test]
    fn a_nan_best_fails() {
        let nan = Claim {
            reported_best: f64::NAN,
            evaluator_value: f64::NAN,
            known_best: 1.0,
        };
        assert!(check(nan).is_err());
    }

    #[test]
    fn a_changed_rerun_digest_fails_the_campaign() {
        let mut tally = Tally::default();
        tally.record(&Ok(()));
        tally.fail(&same_digest(7, 8));
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(same_digest(7, 7).is_ok());
    }
}
