//! Seeded byte-mutation fuzzing of the serve wire protocol.
//!
//! The serving layer promises that *any* line of input — however
//! mangled — yields a typed `{kind, detail}` error, never a panic and
//! never a silent drop. This module turns that promise into a campaign:
//! starting from a caller-supplied corpus of valid request lines, it
//! derives a deterministic stream of hostile mutations (bit flips,
//! deletions, insertions, truncations, structural-character swaps,
//! cross-line splices, runs of thousands of `[` or `{`, and long operator
//! chains in the program text) and feeds each through a caller-supplied
//! checker.
//!
//! The mutation engine lives here (rather than next to the serve layer)
//! so the driver stays independent of the stack's crates: `pm-fuzz` is a
//! dependency of the core crate, so the checker closure — which wraps a
//! live `ServeEngine` in `catch_unwind` and validates the response shape
//! — is supplied by the call site (`pmc fuzz --wire`, the resilience
//! integration tests).
//!
//! Mutations operate on raw bytes and are repaired to UTF-8 lossily,
//! matching what a line-based transport could actually deliver to the
//! request parser.

use srdfg::hash::splitmix64;

/// One wire-fuzz campaign's knobs.
#[derive(Debug, Clone)]
pub struct WireFuzzConfig {
    /// Master seed; case `i` derives its own mutation from it.
    pub seed: u64,
    /// Number of mutated lines to generate and check.
    pub cases: usize,
}

impl Default for WireFuzzConfig {
    fn default() -> Self {
        WireFuzzConfig { seed: 0xB17E, cases: 2000 }
    }
}

/// The first mutated line the checker rejected.
#[derive(Debug, Clone)]
pub struct WireFailure {
    /// Zero-based case index.
    pub case: usize,
    /// The mutated line (lossily repaired to UTF-8, as delivered).
    pub line: String,
    /// What the checker reported (panic, untyped response, …).
    pub detail: String,
}

/// Outcome of a wire-fuzz campaign.
#[derive(Debug, Clone)]
pub struct WireReport {
    /// Cases executed (stops at the first failure).
    pub executed: usize,
    /// Mutated lines that were no longer valid JSON at all (for
    /// campaign-shape visibility; both classes must check clean).
    pub mangled: usize,
    /// The first failure, when one occurred. The route name on the wire
    /// is `serve@wire`.
    pub failure: Option<WireFailure>,
}

/// A tiny deterministic byte-stream RNG for the mutation draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Characters that matter to the JSON scanner; swapping one in is far
/// more likely to reach deep parser states than a random byte.
const STRUCTURAL: &[u8] = b"{}[]\",:\\tfn0.-eE ";

/// Derives mutation `case` of `corpus` under `seed` — a pure function,
/// so any failing case is reproducible in isolation.
pub fn mutate(corpus: &[String], seed: u64, case: usize) -> String {
    let mut rng = Rng(splitmix64(seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let base = corpus[rng.below(corpus.len())].as_bytes().to_vec();
    let mut bytes = base;
    // 1..=3 stacked mutations per case: single-edit lines exercise the
    // scanner's error paths, stacked edits reach the deeper states.
    let edits = 1 + rng.below(3);
    for _ in 0..edits {
        if bytes.is_empty() {
            bytes.push(STRUCTURAL[rng.below(STRUCTURAL.len())]);
            continue;
        }
        let pos = rng.below(bytes.len());
        match rng.below(9) {
            // Bit flip.
            0 => bytes[pos] ^= 1 << rng.below(8),
            // Structural-character swap.
            1 => bytes[pos] = STRUCTURAL[rng.below(STRUCTURAL.len())],
            // Random-byte overwrite.
            2 => bytes[pos] = (rng.next() & 0xFF) as u8,
            // Deletion.
            3 => {
                bytes.remove(pos);
            }
            // Insertion.
            4 => bytes.insert(pos, STRUCTURAL[rng.below(STRUCTURAL.len())]),
            // Truncation.
            5 => bytes.truncate(pos),
            // Nesting: thousands of one opener, deep enough to overflow a
            // recursive parser's stack.
            6 => {
                let open = if rng.below(2) == 0 { b'[' } else { b'{' };
                let run = 1_000 + rng.below(100_000);
                bytes.splice(pos..pos, std::iter::repeat_n(open, run));
            }
            // Operator chain: thousands of one prefix operator or
            // operand-operator pair after the next `=` (an assignment in
            // the program text), deep enough to overflow a parser that
            // recurses per operator, or that drops the tree recursively.
            7 => {
                let unit: &[u8] = [b"-".as_slice(), b"!", b"x^", b"x+"][rng.below(4)];
                let run = 1_000 + rng.below(300_000);
                let at = bytes[pos..].iter().position(|&b| b == b'=').map_or(pos, |i| pos + i + 1);
                bytes.splice(at..at, unit.iter().copied().cycle().take(unit.len() * run));
            }
            // Splice: head of this line + tail of another corpus line.
            _ => {
                let other = corpus[rng.below(corpus.len())].as_bytes();
                let cut = rng.below(other.len() + 1);
                bytes.truncate(pos);
                bytes.extend_from_slice(&other[other.len() - cut..]);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs a wire-fuzz campaign: for each case, derive a mutated line and
/// hand it to `check`. The checker returns `Err(detail)` when the line
/// produced anything other than a typed response (a panic, malformed
/// output, a dropped request); the campaign stops at the first failure.
///
/// `is_mangled` is a caller-supplied classifier (typically "did the line
/// still parse as a protocol request") used only for the report's
/// campaign-shape counter.
pub fn run_wire_fuzz(
    cfg: &WireFuzzConfig,
    corpus: &[String],
    mut is_mangled: impl FnMut(&str) -> bool,
    mut check: impl FnMut(&str) -> Result<(), String>,
) -> WireReport {
    assert!(!corpus.is_empty(), "wire fuzz needs at least one corpus line");
    let mut mangled = 0;
    for case in 0..cfg.cases {
        let line = mutate(corpus, cfg.seed, case);
        if is_mangled(&line) {
            mangled += 1;
        }
        if let Err(detail) = check(&line) {
            return WireReport {
                executed: case + 1,
                mangled,
                failure: Some(WireFailure { case, line, detail }),
            };
        }
    }
    WireReport { executed: cfg.cases, mangled, failure: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            r#"{"op":"run","id":"a","program":"main(){}"}"#.to_string(),
            r#"{"op":"stats","id":"s"}"#.to_string(),
        ]
    }

    #[test]
    fn mutations_are_deterministic_and_seed_sensitive() {
        let c = corpus();
        let a: Vec<String> = (0..64).map(|i| mutate(&c, 7, i)).collect();
        let b: Vec<String> = (0..64).map(|i| mutate(&c, 7, i)).collect();
        assert_eq!(a, b, "same seed, same mutations");
        let d: Vec<String> = (0..64).map(|i| mutate(&c, 8, i)).collect();
        assert_ne!(a, d, "different seed, different mutations");
    }

    #[test]
    fn mutations_actually_mangle_most_lines() {
        let c = corpus();
        let changed = (0..256).filter(|&i| !c.contains(&mutate(&c, 1, i))).count();
        assert!(changed > 200, "only {changed}/256 mutations changed the line");
    }

    #[test]
    fn campaign_stops_at_first_failure() {
        let c = corpus();
        let cfg = WireFuzzConfig { seed: 1, cases: 50 };
        let report = run_wire_fuzz(
            &cfg,
            &c,
            |_| false,
            |line| {
                if line.len() % 7 == 3 {
                    Err("synthetic".to_string())
                } else {
                    Ok(())
                }
            },
        );
        if let Some(f) = &report.failure {
            assert_eq!(report.executed, f.case + 1);
            assert_eq!(f.detail, "synthetic");
            // The failing case is reproducible in isolation.
            assert_eq!(mutate(&c, 1, f.case), f.line);
        }
    }

    #[test]
    fn clean_checker_runs_all_cases() {
        let cfg = WireFuzzConfig { seed: 2, cases: 100 };
        let report = run_wire_fuzz(&cfg, &corpus(), |l| l.contains('{'), |_| Ok(()));
        assert_eq!(report.executed, 100);
        assert!(report.failure.is_none());
    }
}
