//! The correctness gate: what one pass produced, how two passes are
//! compared, and the pinned default-seed results.

use std::collections::BTreeMap;

/// The seed whose results are pinned in `pins.json`.
pub const DEFAULT_SEED: u64 = 213;

/// The pinned results, embedded at build time.
const PINS_JSON: &str = include_str!("../pins.json");

/// Deterministic work counters of one pass. They are exact on any
/// machine, so two passes of one seed must agree on every one of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulator samples (executions) run.
    pub samples: u64,
    /// Simulator instructions retired.
    pub instructions: u64,
    /// CART fits made by Algorithm 1.
    pub cart_fits: u64,
    /// Happens-before expansions of the space-level lint pass.
    pub hb_expansions: u64,
    /// MCTS tree nodes; `None` when the pass cannot observe the tree
    /// (the traced pass, which goes through `dr_core::explore`).
    pub tree_nodes: Option<u64>,
    /// Records appended to the result store.
    pub appended: u64,
    /// Result-store hits.
    pub hits: u64,
}

/// What one pass mined, plus its work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// `dr_core::records_fingerprint` of the record set.
    pub fingerprint: u64,
    /// Number of performance classes.
    pub classes: usize,
    /// Number of mined rulesets.
    pub rulesets: usize,
    /// Exact work counters.
    pub counters: Counters,
}

/// Every field on which `got` differs from `reference`, as
/// `name reference->got` strings. Tree nodes are compared only when
/// both passes observed them.
pub fn diff(reference: &Outcome, got: &Outcome) -> Vec<String> {
    let (a, b) = (&reference.counters, &got.counters);
    let mut out = Vec::new();
    let mut check = |name: &str, x: u64, y: u64| {
        if x != y {
            out.push(format!("{name} {x}->{y}"));
        }
    };
    check(
        "records_fingerprint",
        reference.fingerprint,
        got.fingerprint,
    );
    check("classes", reference.classes as u64, got.classes as u64);
    check("rulesets", reference.rulesets as u64, got.rulesets as u64);
    check("sim.samples", a.samples, b.samples);
    check("sim.instructions", a.instructions, b.instructions);
    check("ml.cart_fits", a.cart_fits, b.cart_fits);
    check("lint.hb_expansions", a.hb_expansions, b.hb_expansions);
    if let (Some(x), Some(y)) = (a.tree_nodes, b.tree_nodes) {
        check("mcts.tree_nodes", x, y);
    }
    check("store.appended", a.appended, b.appended);
    check("store.hits", a.hits, b.hits);
    out
}

/// A workload's pinned default-seed result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Expected record-set fingerprint.
    pub fingerprint: u64,
    /// Expected class count.
    pub classes: usize,
    /// Expected ruleset count.
    pub rulesets: usize,
}

/// Parses a pins document:
/// `{"seed": 213, "workloads": {"<name>": {"records_fingerprint":
/// "<16 hex digits>", "classes": n, "rulesets": n}}}`.
pub fn parse_pins(text: &str) -> Result<BTreeMap<String, Pin>, String> {
    let doc = dr_obs::json::parse(text)?;
    let seed = doc.get("seed").and_then(|v| v.as_u64());
    if seed != Some(DEFAULT_SEED) {
        return Err(format!(
            "pins are for seed {seed:?}, expected {DEFAULT_SEED}"
        ));
    }
    let dr_obs::json::Value::Obj(workloads) = doc.get("workloads").ok_or("no workloads")? else {
        return Err("workloads is not an object".into());
    };
    let mut out = BTreeMap::new();
    for (name, w) in workloads {
        let field = |k: &str| w.get(k).ok_or(format!("{name}: missing {k}"));
        let hex = field("records_fingerprint")?
            .as_str()
            .ok_or(format!("{name}: records_fingerprint is not a string"))?;
        let fingerprint = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("{name}: bad records_fingerprint {hex:?}: {e}"))?;
        let count = |k: &str| -> Result<usize, String> {
            field(k)?
                .as_u64()
                .map(|v| v as usize)
                .ok_or(format!("{name}: {k} is not a count"))
        };
        out.insert(
            name.clone(),
            Pin {
                fingerprint,
                classes: count("classes")?,
                rulesets: count("rulesets")?,
            },
        );
    }
    Ok(out)
}

/// The shipped pin of `workload`.
pub fn shipped_pin(workload: &str) -> Result<Pin, String> {
    parse_pins(PINS_JSON)?
        .remove(workload)
        .ok_or(format!("no pin for workload {workload}"))
}

/// Checks a default-seed outcome against its pin; the error names every
/// mismatching field.
pub fn check_pin(pin: &Pin, got: &Outcome) -> Result<(), String> {
    let mut bad = Vec::new();
    if pin.fingerprint != got.fingerprint {
        bad.push(format!(
            "records_fingerprint pinned {:016x} got {:016x}",
            pin.fingerprint, got.fingerprint
        ));
    }
    if pin.classes != got.classes {
        bad.push(format!(
            "classes pinned {} got {}",
            pin.classes, got.classes
        ));
    }
    if pin.rulesets != got.rulesets {
        bad.push(format!(
            "rulesets pinned {} got {}",
            pin.rulesets, got.rulesets
        ));
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// Pass bookkeeping: every pass is one attempt, checked against the
/// run's first untraced pass, the cold run that filled a warm store,
/// and, at the default seed, the pin.
pub struct Gate {
    pin: Option<Pin>,
    cold_fingerprint: Option<u64>,
    reference: Option<Outcome>,
    /// Passes attempted.
    pub attempted: u64,
    /// Passes that failed a check.
    pub failed: u64,
}

impl Gate {
    /// A gate with no passes yet.
    pub fn new(pin: Option<Pin>, cold_fingerprint: Option<u64>) -> Gate {
        Gate {
            pin,
            cold_fingerprint,
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one pass and checks its outcome; failures are reported on
    /// stderr.
    pub fn check(&mut self, what: &str, got: Result<Outcome, String>) {
        self.attempted += 1;
        let mut errors = Vec::new();
        match got {
            Err(e) => errors.push(e),
            Ok(o) => {
                let reference = *self.reference.get_or_insert(o);
                errors.extend(diff(&reference, &o));
                if let Some(pin) = &self.pin {
                    errors.extend(check_pin(pin, &o).err());
                }
                if let Some(cold) = self.cold_fingerprint.filter(|&c| c != o.fingerprint) {
                    errors.push(format!(
                        "records_fingerprint {:016x} differs from the cold fill's {cold:016x}",
                        o.fingerprint
                    ));
                }
            }
        }
        if !errors.is_empty() {
            self.failed += 1;
            eprintln!(
                "FAILED {what} pass {}: {}",
                self.attempted,
                errors.join("; ")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(fingerprint: u64) -> Outcome {
        Outcome {
            fingerprint,
            classes: 5,
            rulesets: 12,
            counters: Counters {
                samples: 100,
                tree_nodes: Some(7),
                ..Counters::default()
            },
        }
    }

    #[test]
    fn shipped_pins_cover_every_workload() {
        for w in crate::workload::WORKLOADS {
            shipped_pin(w).unwrap();
        }
    }

    #[test]
    fn corrupted_pinned_fingerprint_is_a_failure() {
        let got = outcome(0x0123_4567_89ab_cdef);
        let good = Pin {
            fingerprint: got.fingerprint,
            classes: 5,
            rulesets: 12,
        };
        assert!(check_pin(&good, &got).is_ok());
        let corrupted = Pin {
            fingerprint: good.fingerprint ^ 1,
            ..good
        };
        let err = check_pin(&corrupted, &got).unwrap_err();
        assert!(err.contains("records_fingerprint"), "{err}");
        // The same corruption in a pins document is caught end to end.
        let text = r#"{"seed": 213, "workloads": {"w": {"records_fingerprint":
            "0123456789abcdee", "classes": 5, "rulesets": 12}}}"#;
        let pins = parse_pins(text).unwrap();
        assert!(check_pin(&pins["w"], &got).is_err());
        // And a run gated on it counts the pass as failed.
        let mut gate = Gate::new(Some(pins["w"]), None);
        gate.check("untraced", Ok(got));
        assert_eq!((gate.attempted, gate.failed), (1, 1));
    }

    #[test]
    fn gate_counts_errors_mismatches_and_cold_fill_divergence() {
        let mut gate = Gate::new(None, None);
        gate.check("untraced", Ok(outcome(1)));
        gate.check("traced", Ok(outcome(1)));
        assert_eq!((gate.attempted, gate.failed), (2, 0));
        gate.check("traced", Ok(outcome(2)));
        gate.check("untraced", Err("pipeline error: boom".into()));
        assert_eq!((gate.attempted, gate.failed), (4, 2));
        let mut warm = Gate::new(None, Some(9));
        warm.check("untraced", Ok(outcome(1)));
        assert_eq!(warm.failed, 1, "warm passes must reproduce the cold fill");
    }

    #[test]
    fn pins_for_another_seed_are_rejected() {
        let text = r#"{"seed": 7, "workloads": {}}"#;
        assert!(parse_pins(text).is_err());
    }

    #[test]
    fn diff_names_counter_mismatches_and_skips_unobserved_trees() {
        let a = outcome(1);
        assert!(diff(&a, &a).is_empty());
        let mut b = a;
        b.counters.samples += 1;
        b.counters.tree_nodes = None;
        assert_eq!(diff(&a, &b), vec!["sim.samples 100->101".to_string()]);
        b.fingerprint = 2;
        assert_eq!(diff(&a, &b).len(), 2);
    }
}
