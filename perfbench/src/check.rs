//! Per-op verdicts: reference values, and the tally of failed ops.

use std::collections::{BTreeMap, BTreeSet};

/// Why an op failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// Its result missed the software reference.
    Reference,
    /// Its simulated record differs from the committed artifact.
    Committed,
    /// A gate finding of severity error names it.
    Gate,
    /// Its result or record is not bit-identical to cycle stepping.
    BitAgreement,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::Reference => "reference",
            Fault::Committed => "committed-artifact",
            Fault::Gate => "gate",
            Fault::BitAgreement => "bit-agreement",
        }
    }
}

/// Expected output values of one op: exact, or within a per-value bound.
pub(crate) struct Expected {
    values: Vec<f64>,
    /// Allowed absolute error per value; empty means exact.
    bound: Vec<f64>,
}

/// Unit roundoff of binary64.
const UNIT_ROUNDOFF: f64 = 1.0 / 9_007_199_254_740_992.0;

/// The classic forward-error factor `γ(n) = n·u / (1 − n·u)` of a sum of
/// `n` terms in any order.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn gamma(n: usize) -> f64 {
    let nu = n as f64 * UNIT_ROUNDOFF;
    nu / (1.0 - nu)
}

impl Expected {
    /// Integer-valued operands: every value must match exactly.
    pub(crate) fn exact(values: Vec<f64>) -> Self {
        Self {
            values,
            bound: Vec::new(),
        }
    }

    /// Real-valued operands: `values[i]` was summed from terms whose
    /// magnitudes add up to `magnitude[i]` over `terms` terms. Both the
    /// design and the reference may round, in different orders, so each
    /// may be off by `γ(terms) · magnitude`; the allowed gap is twice that.
    pub(crate) fn summed(values: Vec<f64>, magnitude: &[f64], terms: usize) -> Self {
        let g = gamma(terms);
        Self {
            values,
            bound: magnitude.iter().map(|m| 2.0 * g * m).collect(),
        }
    }

    pub(crate) fn check(&self, got: &[f64]) -> Result<(), String> {
        if got.len() != self.values.len() {
            return Err(format!(
                "{} values, reference has {}",
                got.len(),
                self.values.len()
            ));
        }
        for (i, (&g, &want)) in got.iter().zip(&self.values).enumerate() {
            let ok = match self.bound.get(i) {
                None => g == want,
                Some(&b) => (g - want).abs() <= b,
            };
            if !ok {
                return Err(format!("value {i} is {g:e}, reference {want:e}"));
            }
        }
        Ok(())
    }
}

/// Bit equality of two value lists (the native/cycle agreement check).
pub(crate) fn bit_equal(a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!(
            "{} values vs {} from cycle stepping",
            a.len(),
            b.len()
        ));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "value {i} is {:e}, cycle stepping gave {:e}",
            a[i], b[i]
        )),
    }
}

/// Failures of one pass, one slot per op.
pub(crate) struct PassVerdicts {
    labels: Vec<String>,
    faults: Vec<Option<(Fault, String)>>,
    unattributed: Vec<String>,
}

impl PassVerdicts {
    pub(crate) fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        Self {
            labels,
            faults: vec![None; n],
            unattributed: Vec::new(),
        }
    }

    /// Record a failure of op `i`; the first failure of an op is kept.
    pub(crate) fn fail(&mut self, i: usize, fault: Fault, reason: String) {
        if self.faults[i].is_none() {
            self.faults[i] = Some((fault, reason));
        }
    }

    /// A gate error: fail every op whose label the message names, or
    /// keep it as an unattributed error when it names none.
    pub(crate) fn gate_error(&mut self, message: &str) {
        let named: Vec<usize> = (0..self.labels.len())
            .filter(|&i| names(message, &self.labels[i]))
            .collect();
        if named.is_empty() {
            self.unattributed.push(message.to_string());
        }
        for i in named {
            self.fail(i, Fault::Gate, message.to_string());
        }
    }

    /// A whole-artifact mismatch no per-op comparison explains.
    pub(crate) fn unattributed(&mut self, message: String) {
        self.unattributed.push(message);
    }
}

/// Whether `message` names `label` as a whole word (so `mm/linear/s1`
/// is not named by a message about `mm/linear/s12`).
fn names(message: &str, label: &str) -> bool {
    message.match_indices(label).any(|(at, _)| {
        !message[at + label.len()..]
            .chars()
            .next()
            .is_some_and(char::is_alphanumeric)
    })
}

/// Verdicts over every pass of a run. An op is counted once per run,
/// however many passes repeat it, and fails when any pass failed it, so
/// `attempted` and `failed` do not depend on how many passes fit in the
/// run's time.
#[derive(Default)]
pub(crate) struct Tally {
    /// Every op judged in the run.
    ops: BTreeSet<String>,
    /// Whether anything other than a bit-agreement failure occurred.
    wrong: bool,
    /// Failing ops with their first reason and how many passes failed.
    by_op: BTreeMap<String, (Fault, String, u64)>,
    unattributed: Vec<String>,
}

impl Tally {
    pub(crate) fn add(&mut self, pass: PassVerdicts) {
        for (label, fault) in pass.labels.into_iter().zip(pass.faults) {
            if let Some((fault, reason)) = fault {
                self.wrong |= fault != Fault::BitAgreement;
                self.by_op
                    .entry(label.clone())
                    .or_insert((fault, reason, 0))
                    .2 += 1;
            }
            self.ops.insert(label);
        }
        if !pass.unattributed.is_empty() {
            self.wrong = true;
        }
        for message in pass.unattributed {
            if !self.unattributed.contains(&message) {
                self.unattributed.push(message);
            }
        }
    }

    /// Distinct ops judged in the run.
    pub(crate) fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Distinct ops that failed in at least one pass.
    pub(crate) fn failed(&self) -> u64 {
        self.by_op.len() as u64
    }

    /// True when every result met its reference, every record matched
    /// its artifact and no gate reported an error. Native/cycle bit
    /// disagreements count as failed ops, not as wrong answers: both
    /// results meet the reference.
    pub(crate) fn correct(&self) -> bool {
        !self.wrong
    }

    /// One line per failing op and per unattributed error.
    pub(crate) fn report_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .by_op
            .iter()
            .map(|(op, (fault, reason, passes))| {
                format!(
                    "FAILED {op}: {} check, {passes} pass(es): {reason}",
                    fault.name()
                )
            })
            .collect();
        lines.extend(self.unattributed.iter().map(|m| format!("ERROR {m}")));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_and_exact_checks() {
        assert!(Expected::exact(vec![1.0, 2.0]).check(&[1.0, 2.0]).is_ok());
        assert!(Expected::exact(vec![1.0]).check(&[1.0 + 1e-15]).is_err());
        let e = Expected::summed(vec![1.0], &[1.0], 4);
        assert!(e.check(&[1.0 + 4.0 * UNIT_ROUNDOFF]).is_ok());
        assert!(e.check(&[1.0 + 1e-12]).is_err());
    }

    #[test]
    fn tally_separates_bit_agreement_from_wrong_answers() {
        let mut t = Tally::default();
        let mut p = PassVerdicts::new(vec!["dot/real[n=64]".into(), "axpy".into()]);
        p.fail(0, Fault::BitAgreement, "differs".into());
        t.add(p);
        assert_eq!((t.attempted(), t.failed()), (2, 1));
        assert!(t.correct());
        let mut p = PassVerdicts::new(vec!["dot/real[n=64]".into(), "axpy".into()]);
        p.gate_error("axpy exceeds its bound");
        t.add(p);
        // A second pass over the same ops adds no attempts.
        assert_eq!((t.attempted(), t.failed()), (2, 2));
        assert!(!t.correct());
    }
}
