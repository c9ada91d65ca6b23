//! Structured error taxonomy for the SoC runtime.
//!
//! Every fallible path in `crates/accel` surfaces a [`SocError`] instead
//! of panicking: a missing backend, a malformed fragment stream, a retry
//! budget exhausted on a faulting device with no fallback available.
//! Errors carry enough structure for the CLI to print lint-style
//! diagnostics (including a "did you mean" suggestion for misattached
//! backends) and for the fuzzer to minimize fault-injected failures.

use crate::fault::FaultKind;
use pmlang::Domain;
use srdfg::BudgetExceeded;
use std::fmt;

/// Why a SoC run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SocError {
    /// A partition was compiled for an accelerator that is not attached
    /// to this SoC.
    MissingBackend {
        /// The target the partition was compiled for.
        target: String,
        /// The partition's domain annotation.
        domain: Option<Domain>,
        /// Names of the backends that *are* attached.
        attached: Vec<String>,
        /// Closest attached name, when one is plausibly a typo.
        suggestion: Option<String>,
    },
    /// A fragment violated the dispatch contract: a compute fragment that
    /// names no live node, or a `load`/`store` with no edge to move.
    MalformedFragment {
        /// Target whose stream held the fragment.
        target: String,
        /// Fragment index within the partition.
        fragment: usize,
        /// What was wrong.
        detail: String,
    },
    /// A fragment kept faulting past the retry budget and no fallback
    /// path was available.
    RetriesExhausted {
        /// The faulting target.
        target: String,
        /// Fragment index within the partition.
        fragment: usize,
        /// Fragment operation name.
        op: String,
        /// Total dispatch attempts made.
        attempts: u32,
        /// The last fault observed.
        fault: FaultKind,
    },
    /// A fragment exceeded its total virtual-time budget (stalls +
    /// backoff) and no fallback path was available.
    DeadlineExceeded {
        /// The stalling target.
        target: String,
        /// Fragment index within the partition.
        fragment: usize,
        /// Fragment operation name.
        op: String,
        /// The per-fragment budget, virtual nanoseconds.
        budget_ns: u64,
        /// Virtual time spent before giving up.
        spent_ns: u64,
    },
    /// A device is down and host-fallback re-lowering was impossible
    /// (no target map supplied to re-run Algorithm 1).
    FallbackUnavailable {
        /// The downed target.
        target: String,
        /// Why fallback could not proceed.
        detail: String,
    },
    /// Host-fallback re-lowering itself failed.
    Relower {
        /// The lowering error message.
        detail: String,
    },
    /// Functional execution of an invocation failed.
    Execution {
        /// Which invocation of the trajectory.
        invocation: u64,
        /// The interpreter error message.
        detail: String,
    },
    /// The request-level budget ([`srdfg::Budget`]) ran out mid-run;
    /// the dispatch loop unwound cooperatively at its next checkpoint.
    BudgetExhausted(BudgetExceeded),
}

impl SocError {
    /// Builds a [`SocError::MissingBackend`] with a "did you mean"
    /// suggestion computed against the attached backend names.
    pub fn missing_backend(
        target: impl Into<String>,
        domain: Option<Domain>,
        attached: Vec<String>,
    ) -> Self {
        let target = target.into();
        let suggestion = closest_name(&target, &attached);
        SocError::MissingBackend { target, domain, attached, suggestion }
    }
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::MissingBackend { target, domain, attached, suggestion } => {
                write!(f, "no backend `{target}` attached to the SoC")?;
                if let Some(d) = domain {
                    write!(f, " for domain {d:?}")?;
                }
                if attached.is_empty() {
                    write!(f, "; no backends are attached")?;
                } else {
                    write!(f, "; attached: {}", attached.join(", "))?;
                }
                if let Some(s) = suggestion {
                    write!(f, "; did you mean `{s}`?")?;
                }
                Ok(())
            }
            SocError::MalformedFragment { target, fragment, detail } => {
                write!(f, "{target}: malformed fragment {fragment}: {detail}")
            }
            SocError::RetriesExhausted { target, fragment, op, attempts, fault } => {
                write!(
                    f,
                    "{target}: fragment {fragment} (`{op}`) still failing after {attempts} \
                     attempts ({fault}) and no fallback target map was provided"
                )
            }
            SocError::DeadlineExceeded { target, fragment, op, budget_ns, spent_ns } => {
                write!(
                    f,
                    "{target}: fragment {fragment} (`{op}`) exceeded its dispatch budget \
                     ({spent_ns} ns spent of {budget_ns} ns) and no fallback target map was \
                     provided"
                )
            }
            SocError::FallbackUnavailable { target, detail } => {
                write!(f, "{target}: device down and host fallback unavailable: {detail}")
            }
            SocError::Relower { detail } => {
                write!(f, "host-fallback re-lowering failed: {detail}")
            }
            SocError::Execution { invocation, detail } => {
                write!(f, "invocation {invocation}: execution failed: {detail}")
            }
            SocError::BudgetExhausted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SocError {}

/// The attached name closest to `target` by edit distance, when close
/// enough to plausibly be a typo (distance ≤ half the target's length).
fn closest_name(target: &str, attached: &[String]) -> Option<String> {
    let budget = (target.chars().count() / 2).max(1);
    attached
        .iter()
        .map(|name| (levenshtein(&target.to_lowercase(), &name.to_lowercase()), name))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, _)| *d)
        .map(|(_, name)| name.clone())
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn did_you_mean_picks_the_closest_backend() {
        let attached = vec!["TABLA".to_string(), "DECO".to_string(), "RoboX".to_string()];
        let err = SocError::missing_backend("TABAL", Some(Domain::DataAnalytics), attached);
        let msg = err.to_string();
        assert!(msg.contains("did you mean `TABLA`?"), "got: {msg}");
        assert!(msg.contains("attached: TABLA, DECO, RoboX"), "got: {msg}");
    }

    #[test]
    fn no_suggestion_when_nothing_is_close() {
        let attached = vec!["TABLA".to_string(), "DECO".to_string()];
        let err = SocError::missing_backend("Graphicionado", None, attached);
        match &err {
            SocError::MissingBackend { suggestion, .. } => assert!(suggestion.is_none()),
            other => panic!("unexpected variant {other:?}"),
        }
        assert!(!err.to_string().contains("did you mean"));
    }

    #[test]
    fn suggestion_is_case_insensitive() {
        let attached = vec!["DECO".to_string()];
        let err = SocError::missing_backend("deco", Some(Domain::Dsp), attached);
        match &err {
            SocError::MissingBackend { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("DECO"));
            }
            other => panic!("unexpected variant {other:?}"),
        }
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("abc", "abd"), 1);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }
}
