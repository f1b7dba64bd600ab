//! The cycle-conservation audit (`reproduce --audit`).
//!
//! The profiler's claim — every simulated cycle is attributed to a
//! modelled mechanism — is what lets the reproduction argue *why* the
//! paper's numbers differ across kernels, not just that they do. This
//! audit makes the claim checkable on demand: the run traces every
//! shard of every planned experiment ([`crate::execute_traced`]), and
//! the audit verifies [`SessionReport::conservation`] on each shard's
//! report — charged cycles must equal elapsed cycles exactly, and the
//! per-class breakdown must sum back to the charged total. Nothing is
//! re-run: the audited shards are the ones the tables came from.
//!
//! [`SessionReport::conservation`]: tnt_sim::trace::SessionReport::conservation

use crate::profile::ShardTrace;

/// One shard that failed conservation.
#[derive(Clone, Debug)]
pub struct AuditFinding {
    /// Shard label ("t5/Linux/run3", "x8").
    pub label: String,
    /// The drift message from [`tnt_sim::trace::SessionReport::conservation`].
    pub error: String,
}

/// Outcome of a conservation audit over the experiment matrix.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Experiments audited.
    pub experiments: usize,
    /// Traced shards checked.
    pub shards: usize,
    /// Shards whose attribution drifted from the simulated clock, or
    /// that left no report.
    pub failures: Vec<AuditFinding>,
    /// Whether the happens-before race detector was armed while the
    /// audited shards ran. When true, a detected race would have failed
    /// the shard outright — so a passing audit also certifies the
    /// engine raced on nothing it touched.
    pub race_armed: bool,
}

impl AuditReport {
    /// Did every shard conserve cycles?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the audit block printed by `reproduce --audit`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cycle-conservation audit: {} experiment(s), {} shard(s)",
            self.experiments, self.shards
        );
        if self.passed() {
            out.push_str(": every cycle attributed, breakdown sums exact\n");
        } else {
            out.push_str(&format!(": {} FAILURE(S)\n", self.failures.len()));
            for f in &self.failures {
                out.push_str(&format!("  {}: {}\n", f.label, f.error));
            }
        }
        if self.race_armed {
            out.push_str(
                "happens-before race detection: armed on every shard, no unordered access pairs\n",
            );
        }
        out
    }
}

/// Audits cycle conservation over the traced shards of a run.
/// `race_armed` says whether they ran with the race detector armed.
pub fn conservation_audit(shards: &[ShardTrace], race_armed: bool) -> AuditReport {
    let mut report = AuditReport {
        shards: shards.len(),
        race_armed,
        ..AuditReport::default()
    };
    for (i, shard) in shards.iter().enumerate() {
        if i == 0 || shards[i - 1].plan != shard.plan {
            report.experiments += 1;
        }
        let verdict = match &shard.report {
            Some(r) => r.conservation(),
            None => Err("no trace report: the shard panicked".into()),
        };
        if let Err(error) = verdict {
            report.failures.push(AuditFinding {
                label: shard.label.clone(),
                error,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use crate::profile::execute_traced;
    use crate::scale::Scale;
    use crate::{all_ids, extra_ids};

    #[test]
    fn smoke_matrix_conserves_cycles() {
        let scale = Scale {
            runs: 1,
            ..Scale::smoke()
        };
        let ids: Vec<&str> = all_ids().into_iter().chain(extra_ids()).collect();
        let plans = plan(&ids, &scale);
        let planned = plans.len();
        let (_, shards) = execute_traced(plans, 2);
        let report = conservation_audit(&shards, false);
        assert_eq!(report.experiments, planned, "every plan audited");
        assert_eq!(report.shards, shards.len());
        assert!(report.shards > 2 * report.experiments, "{report:?}");
        assert!(report.passed(), "conservation drift:\n{}", report.render());
        assert!(report.render().contains("every cycle attributed"));
    }

    #[test]
    fn failures_render_with_context() {
        let shards = vec![ShardTrace {
            plan: "t5",
            label: "t5/Linux/run1".into(),
            report: None,
        }];
        let r = conservation_audit(&shards, false);
        assert_eq!((r.experiments, r.shards), (1, 1));
        let text = r.render();
        assert!(text.contains("1 FAILURE"), "{text}");
        assert!(text.contains("t5/Linux/run1: no trace report"), "{text}");
    }

    #[test]
    fn race_armed_status_is_reported() {
        let r = AuditReport {
            race_armed: true,
            ..AuditReport::default()
        };
        assert!(r.render().contains("happens-before race detection: armed"));
        assert!(!AuditReport::default()
            .render()
            .contains("happens-before"));
    }
}
