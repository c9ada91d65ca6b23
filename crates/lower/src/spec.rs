//! Accelerator operation-support specifications.
//!
//! The paper's Algorithm 1 lowers against a map `Om` from domain names to
//! the list `Ot` of operation names a domain's target accelerator
//! supports. [`AcceleratorSpec`] is one such `Ot`;
//! [`TargetMap`] is `Om`, with a default target for un-annotated nodes
//! (the SoC host).

use pmlang::Domain;
use srdfg::Ident;
use std::collections::{BTreeSet, HashMap};

/// The operation-support contract of one accelerator target.
#[derive(Debug, Clone)]
pub struct AcceleratorSpec {
    /// Target name (e.g. `"TABLA"`).
    pub name: String,
    /// The domain this accelerator serves.
    pub domain: Domain,
    /// Operation names the target accepts (`Ot`): node names like `add`,
    /// `sum`, `matvec`, `conv2d`, `map`, `unpack`, …
    pub supported: BTreeSet<String>,
    /// When true, every operation is accepted (general-purpose hosts).
    pub supports_all: bool,
}

impl AcceleratorSpec {
    /// Creates a spec from an operation-name list.
    pub fn new(
        name: impl Into<String>,
        domain: Domain,
        ops: impl IntoIterator<Item = &'static str>,
    ) -> Self {
        AcceleratorSpec {
            name: name.into(),
            domain,
            supported: ops.into_iter().map(str::to_string).collect(),
            supports_all: false,
        }
    }

    /// A spec accepting every operation (general-purpose processor).
    pub fn general_purpose(name: impl Into<String>, domain: Domain) -> Self {
        AcceleratorSpec {
            name: name.into(),
            domain,
            supported: BTreeSet::new(),
            supports_all: true,
        }
    }

    /// True if the target accepts operation `op` (`n.name ∈ Ot`).
    pub fn supports(&self, op: &str) -> bool {
        self.supports_all || self.supported.contains(op)
    }
}

/// Memoized `n.name ∈ Ot` resolution for whole-graph sweeps.
///
/// Template-instantiated nodes share their name allocations, so
/// a lowered fabric of 78k nodes asks only a handful of pointer-distinct
/// support questions. Keying on the `(spec, name-allocation)` address
/// pair turns the per-node operation-set walk into one integer hash
/// probe. Each entry keeps a clone of the `Ident` it answered for: the
/// clone pins the allocation, so its address can never be freed and
/// reused by a different name while the memo is alive (lowering drops
/// replaced nodes between rounds, so without the pin a stale answer
/// could alias a recycled address). The spec side needs no pin — callers
/// borrow the specs from a [`TargetMap`] they hold across the sweep.
///
/// Measured off (every call answered by [`AcceleratorSpec::supports`]) on
/// the benchmark's `compile-large`: `latency_ms` 64.10 → 66.76, behind in
/// 6 of 6 alternating pairs, so it stays (the `SupportMemo` verdict in
/// CHANGES.md). What it saves is proportional to the nodes Algorithm 1
/// scans: measure again once ROADMAP item 2 shrinks that scan.
#[derive(Debug, Default)]
pub struct SupportMemo {
    map: HashMap<(usize, usize), (Ident, bool), srdfg::FxBuildHasher>,
}

impl SupportMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`AcceleratorSpec::supports`] with memoization.
    pub fn supports(&mut self, spec: &AcceleratorSpec, name: &Ident) -> bool {
        if spec.supports_all {
            return true;
        }
        let key = (spec as *const AcceleratorSpec as usize, name.ptr_id());
        let (pinned, ok) =
            self.map.entry(key).or_insert_with(|| (name.clone(), spec.supports(name.as_str())));
        debug_assert_eq!(pinned, name, "SupportMemo address aliasing");
        *ok
    }
}

/// The paper's `Om`: which accelerator serves each domain, plus the host
/// target for nodes without a domain annotation.
#[derive(Debug, Clone)]
pub struct TargetMap {
    per_domain: HashMap<Domain, AcceleratorSpec>,
    /// Per-component target overrides (paper §V.A.3: OptionPricing runs
    /// logistic regression on TABLA and Black-Scholes on HyperStreams —
    /// two accelerators within one domain).
    overrides: HashMap<String, AcceleratorSpec>,
    host: AcceleratorSpec,
}

impl TargetMap {
    /// Creates a map with only a host target.
    pub fn host_only(host: AcceleratorSpec) -> Self {
        TargetMap { per_domain: HashMap::new(), overrides: HashMap::new(), host }
    }

    /// Assigns `spec` to every node descending from instantiations of the
    /// named component, overriding the domain default.
    pub fn set_override(
        &mut self,
        component: impl Into<String>,
        spec: AcceleratorSpec,
    ) -> &mut Self {
        self.overrides.insert(component.into(), spec);
        self
    }

    /// The override spec for a component name, if any.
    pub fn override_for(&self, component: &str) -> Option<&AcceleratorSpec> {
        self.overrides.get(component)
    }

    /// The spec a node resolves to: its explicit target assignment if one
    /// was stamped, else its domain's default, else the host.
    pub fn target_for(&self, node: &srdfg::Node, graph_domain: Option<Domain>) -> &AcceleratorSpec {
        if let Some(t) = &node.target {
            if let Some(spec) = self.overrides.values().find(|s| *t == s.name) {
                return spec;
            }
            if let Some(spec) = self.per_domain.values().find(|s| *t == s.name) {
                return spec;
            }
        }
        self.target(node.domain.or(graph_domain))
    }

    /// Assigns `spec` as the target for its domain.
    pub fn set(&mut self, spec: AcceleratorSpec) -> &mut Self {
        self.per_domain.insert(spec.domain, spec);
        self
    }

    /// The target serving `domain` (the host when unassigned or `None`).
    pub fn target(&self, domain: Option<Domain>) -> &AcceleratorSpec {
        domain.and_then(|d| self.per_domain.get(&d)).unwrap_or(&self.host)
    }

    /// The host target.
    pub fn host(&self) -> &AcceleratorSpec {
        &self.host
    }

    /// Domains with a dedicated (non-host) target.
    pub fn accelerated_domains(&self) -> Vec<Domain> {
        let mut v: Vec<Domain> = self.per_domain.keys().copied().collect();
        v.sort();
        v
    }

    /// Removes the dedicated target for `domain` (its nodes fall back to
    /// the host), returning the removed spec. Used by the end-to-end case
    /// study to sweep acceleration combinations (paper Fig. 10-12).
    pub fn unset(&mut self, domain: Domain) -> Option<AcceleratorSpec> {
        self.per_domain.remove(&domain)
    }

    /// A content fingerprint of the whole map: equal target assignments,
    /// overrides, and host ⇒ equal value, independent of `HashMap`
    /// iteration order. The serve program cache combines this with
    /// [`srdfg::graph_fingerprint`] to key compiled programs — the same
    /// source lowered against different maps yields different partitions,
    /// so the map must be part of the cache key.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        fn hash_spec<H: Hasher>(s: &AcceleratorSpec, h: &mut H) {
            s.name.hash(h);
            s.domain.hash(h);
            s.supports_all.hash(h);
            s.supported.len().hash(h);
            for op in &s.supported {
                op.hash(h);
            }
        }
        let mut h = srdfg::FxHasher::default();
        let mut domains: Vec<&Domain> = self.per_domain.keys().collect();
        domains.sort();
        domains.len().hash(&mut h);
        for d in domains {
            d.hash(&mut h);
            hash_spec(&self.per_domain[d], &mut h);
        }
        let mut components: Vec<&String> = self.overrides.keys().collect();
        components.sort();
        components.len().hash(&mut h);
        for c in components {
            c.hash(&mut h);
            hash_spec(&self.overrides[c], &mut h);
        }
        hash_spec(&self.host, &mut h);
        h.finish()
    }

    /// A copy of this map with every target named in `down` removed: their
    /// domains (and any component overrides pointing at them) fall back to
    /// the host. The resilient SoC runtime uses this to re-lower the
    /// fragments of a failed accelerator onto the host CPU. The host
    /// itself cannot be removed.
    pub fn without_targets<S: AsRef<str>>(&self, down: &[S]) -> TargetMap {
        let is_down = |name: &str| down.iter().any(|d| d.as_ref() == name);
        TargetMap {
            per_domain: self
                .per_domain
                .iter()
                .filter(|(_, s)| !is_down(&s.name))
                .map(|(d, s)| (*d, s.clone()))
                .collect(),
            overrides: self
                .overrides
                .iter()
                .filter(|(_, s)| !is_down(&s.name))
                .map(|(c, s)| (c.clone(), s.clone()))
                .collect(),
            host: self.host.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_lookup() {
        let spec = AcceleratorSpec::new("TABLA", Domain::DataAnalytics, ["add", "mul", "sum"]);
        assert!(spec.supports("add"));
        assert!(!spec.supports("conv2d"));
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        assert!(host.supports("anything"));
    }

    #[test]
    fn target_map_falls_back_to_host() {
        let host = AcceleratorSpec::general_purpose("CPU", Domain::DataAnalytics);
        let mut map = TargetMap::host_only(host);
        map.set(AcceleratorSpec::new("DECO", Domain::Dsp, ["add", "mul"]));
        assert_eq!(map.target(Some(Domain::Dsp)).name, "DECO");
        assert_eq!(map.target(Some(Domain::Robotics)).name, "CPU");
        assert_eq!(map.target(None).name, "CPU");
        assert_eq!(map.accelerated_domains(), vec![Domain::Dsp]);
        assert!(map.unset(Domain::Dsp).is_some());
        assert_eq!(map.target(Some(Domain::Dsp)).name, "CPU");
    }
}
