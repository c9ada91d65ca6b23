//! The PolyMath compiler driver: PMLang source → checked AST → srDFG →
//! optimization passes → lowering (Algorithm 1) → accelerator IR
//! (Algorithm 2).

use pm_accel::Soc;
use pm_lower::{CompiledProgram, ProgramCache, ProgramCacheStats, ProgramKey, TargetMap};
use pm_passes::{PassManager, PassTiming};
use pmlang::Domain;
use srdfg::{Bindings, Budget, BudgetExceeded, SrDfg, TemplateCache, TemplateCacheStats};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Any error the full compilation pipeline can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum PolyMathError {
    /// Lexing, parsing, or semantic analysis failed.
    Frontend(pmlang::FrontendError),
    /// srDFG generation failed.
    Build(srdfg::BuildError),
    /// Lowering or accelerator-IR compilation failed.
    Lower(pm_lower::LowerError),
    /// The SoC runtime could not execute the compiled program (missing
    /// backend, exhausted retries, failed host fallback, …).
    Soc(pm_accel::SocError),
    /// The request's budget (deadline or fuel) ran out before the
    /// pipeline stage in question could start or finish.
    Budget(BudgetExceeded),
    /// The program's content address is quarantined: a structurally
    /// identical program previously took down a worker, so the request
    /// is rejected before lowering can run.
    Quarantined {
        /// The [`srdfg::graph_fingerprint`] of the post-midend graph.
        fingerprint: u64,
    },
}

impl fmt::Display for PolyMathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyMathError::Frontend(e) => e.fmt(f),
            PolyMathError::Build(e) => e.fmt(f),
            PolyMathError::Lower(e) => e.fmt(f),
            PolyMathError::Soc(e) => e.fmt(f),
            PolyMathError::Budget(e) => e.fmt(f),
            PolyMathError::Quarantined { fingerprint } => {
                write!(f, "program fingerprint {fingerprint:016x} is quarantined after a prior worker panic")
            }
        }
    }
}

impl std::error::Error for PolyMathError {}

impl From<pmlang::FrontendError> for PolyMathError {
    fn from(e: pmlang::FrontendError) -> Self {
        PolyMathError::Frontend(e)
    }
}

impl From<srdfg::BuildError> for PolyMathError {
    fn from(e: srdfg::BuildError) -> Self {
        PolyMathError::Build(e)
    }
}

impl From<pm_lower::LowerError> for PolyMathError {
    fn from(e: pm_lower::LowerError) -> Self {
        // A budget-tagged lowering error is a cancellation, not a compile
        // failure — surface it as such so the wire layer can type it.
        match e.budget {
            Some(b) => PolyMathError::Budget(b),
            None => PolyMathError::Lower(e),
        }
    }
}

impl From<pm_accel::SocError> for PolyMathError {
    fn from(e: pm_accel::SocError) -> Self {
        match e {
            pm_accel::SocError::BudgetExhausted(b) => PolyMathError::Budget(b),
            other => PolyMathError::Soc(other),
        }
    }
}

impl From<BudgetExceeded> for PolyMathError {
    fn from(e: BudgetExceeded) -> Self {
        PolyMathError::Budget(e)
    }
}

/// The compiler: owns the target map (which accelerator serves each
/// domain) and the two caches its one pipeline consults.
pub struct Compiler {
    targets: TargetMap,
    /// Lowering template cache shared across every `compile*` call on this
    /// driver: the second compilation of a structurally similar program
    /// (or a re-lowering after a device fault) instantiates templates
    /// instead of re-expanding them. Cloning the handle aliases one store,
    /// which is the seam `pmc serve` shares between requests.
    template_cache: TemplateCache,
    /// Content-addressed whole-program cache consulted by
    /// [`Compiler::compile_cached_checked`]: a repeat compile of a structurally
    /// identical program against the same target map skips lowering and
    /// Algorithm 2 entirely and returns the stored artifact.
    program_cache: ProgramCache,
}

impl fmt::Debug for Compiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Compiler")
            .field("accelerated", &self.targets.accelerated_domains())
            .finish()
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::host_only()
    }
}

impl Compiler {
    /// A compiler mapping every domain to the host CPU (the baseline).
    pub fn host_only() -> Self {
        Compiler {
            targets: pm_accel::host_targets(),
            template_cache: TemplateCache::new(),
            program_cache: ProgramCache::new(),
        }
    }

    /// A compiler with the paper's five accelerators attached
    /// ([`pm_accel::domain_defaults`]).
    pub fn cross_domain() -> Self {
        Compiler { targets: pm_accel::cross_domain_targets(), ..Compiler::host_only() }
    }

    /// A compiler accelerating only the listed domains (the paper's
    /// Fig. 10-12 acceleration-combination sweep).
    pub fn accelerating(domains: &[Domain]) -> Self {
        let mut c = Compiler::cross_domain();
        for d in Domain::all() {
            if !domains.contains(&d) {
                c.targets.unset(d);
            }
        }
        c
    }

    /// The target map (Algorithm 1's `Om`).
    pub fn targets(&self) -> &TargetMap {
        &self.targets
    }

    /// The driver's persistent lowering template cache. The returned handle
    /// aliases the compiler's store (it is `Arc`-backed), so it can be
    /// passed to [`pm_lower::relower_without`] or a fault-tolerant
    /// runtime and every hit/insert is reflected in [`Compiler::cache_stats`].
    pub fn template_cache(&self) -> TemplateCache {
        self.template_cache.clone()
    }

    /// Lifetime hit/miss/insert/eviction counters of the template cache.
    pub fn cache_stats(&self) -> TemplateCacheStats {
        self.template_cache.stats()
    }

    /// The driver's content-addressed compiled-program cache. The returned
    /// handle aliases the compiler's store (it is `Arc`-backed), so every
    /// [`Compiler::compile_cached_checked`] hit/insert is reflected in
    /// [`Compiler::program_cache_stats`].
    pub fn program_cache(&self) -> ProgramCache {
        self.program_cache.clone()
    }

    /// Lifetime hit/miss/insert/eviction counters of the program cache.
    pub fn program_cache_stats(&self) -> ProgramCacheStats {
        self.program_cache.stats()
    }

    /// Pins every instantiation of `component` to a specific accelerator,
    /// overriding its domain's default target (paper §V.A.3: OptionPricing
    /// runs LR on TABLA and Black-Scholes on HyperStreams).
    pub fn with_target_override(
        mut self,
        component: &str,
        spec: pm_lower::AcceleratorSpec,
    ) -> Self {
        self.targets.set_override(component, spec);
        self
    }

    /// Runs the frontend, srDFG generation and the mid-end only.
    ///
    /// # Errors
    ///
    /// Returns frontend or build errors.
    pub fn build_graph(&self, source: &str, bindings: &Bindings) -> Result<SrDfg, PolyMathError> {
        self.midend_graph(source, bindings, &mut CompileTimings::default())
    }

    /// Full compilation: frontend → srDFG → passes → lower → per-target IR.
    ///
    /// # Errors
    ///
    /// Returns the first pipeline error.
    pub fn compile(
        &self,
        source: &str,
        bindings: &Bindings,
    ) -> Result<CompiledProgram, PolyMathError> {
        self.compile_timed(source, bindings).map(|(program, _)| program)
    }

    /// [`Compiler::compile`], also returning the wall-clock account of
    /// every stage that the pipeline collects on each call (what `pmc
    /// compile --timings` prints).
    ///
    /// # Errors
    ///
    /// Returns the first pipeline error.
    pub fn compile_timed(
        &self,
        source: &str,
        bindings: &Bindings,
    ) -> Result<(CompiledProgram, CompileTimings), PolyMathError> {
        let run = self.pipeline(source, bindings, &Budget::unlimited(), None)?;
        let program = Arc::try_unwrap(run.program).unwrap_or_else(|shared| (*shared).clone());
        Ok((program, run.timings))
    }

    /// [`Compiler::compile`] through the content-addressed program cache,
    /// under a request [`Budget`] and an admission gate over the content
    /// address.
    ///
    /// The frontend, srDFG build, and mid-end always run — they produce
    /// the post-midend graph whose [`srdfg::graph_fingerprint`] (paired
    /// with the target map's fingerprint) addresses the cache. On a hit,
    /// lowering and Algorithm 2 are skipped entirely and the stored
    /// artifact is returned; `timings.lower` and `timings.compile` stay
    /// zero, which is how callers (and the serve differential tests)
    /// verify the stages were skipped. On a miss, the full pipeline runs
    /// and the result is inserted before returning.
    ///
    /// The budget is checked *before* the frontend runs — a request whose
    /// deadline has already passed never executes any pipeline stage —
    /// and charged inside Algorithm 1's round loop and at Algorithm 2's
    /// entry, so an in-flight request past its budget unwinds at the next
    /// loop boundary. The `gate` is consulted with the post-midend
    /// [`ProgramKey`]; returning `false` rejects the request as
    /// [`PolyMathError::Quarantined`] before lowering can run (this is the
    /// serve layer's poison-quarantine hook).
    ///
    /// # Errors
    ///
    /// Returns the first pipeline error (never caches failures),
    /// [`PolyMathError::Budget`] or [`PolyMathError::Quarantined`].
    pub fn compile_cached_checked(
        &self,
        source: &str,
        bindings: &Bindings,
        budget: &Budget,
        gate: &dyn Fn(&ProgramKey) -> bool,
    ) -> Result<CachedCompile, PolyMathError> {
        let run = self.pipeline(source, bindings, budget, Some((&self.program_cache, gate)))?;
        let key = run.key.expect("the pipeline keys every program-cached compile");
        Ok(CachedCompile {
            program: run.program,
            cache_hit: run.cache_hit,
            key,
            timings: run.timings,
        })
    }

    /// The front half of [`Compiler::pipeline`]: frontend → srDFG build →
    /// mid-end, each timed into `timings`.
    fn midend_graph(
        &self,
        source: &str,
        bindings: &Bindings,
        timings: &mut CompileTimings,
    ) -> Result<SrDfg, PolyMathError> {
        let t = Instant::now();
        let (program, _) = pmlang::frontend(source)?;
        timings.frontend = t.elapsed();

        let t = Instant::now();
        let mut graph = srdfg::build(&program, bindings)?;
        timings.build = t.elapsed();

        let t = Instant::now();
        timings.passes = PassManager::standard().run_timed(&mut graph);
        timings.midend = t.elapsed();
        Ok(graph)
    }

    /// The compile pipeline, written once: [`Compiler::midend_graph`],
    /// then [`pm_passes::lower_and_compile`]. Every public entry point is
    /// this stage list; `cached` is the program cache to key, look up and
    /// insert into, with the gate that admits a key before the lookup (or
    /// none — then no key is computed).
    fn pipeline(
        &self,
        source: &str,
        bindings: &Bindings,
        budget: &Budget,
        cached: Option<(&ProgramCache, Gate<'_>)>,
    ) -> Result<PipelineRun, PolyMathError> {
        budget.check("compile")?;
        let t0 = Instant::now();
        let mut timings = CompileTimings::default();
        let graph = self.midend_graph(source, bindings, &mut timings)?;

        let keyed =
            cached.map(|(cache, admit)| (cache, ProgramKey::new(&graph, &self.targets), admit));
        let key = keyed.map(|(_, key, _)| key);
        if let Some((cache, key, admit)) = keyed {
            if !admit(&key) {
                return Err(PolyMathError::Quarantined { fingerprint: key.graph });
            }
            if let Some(program) = cache.lookup(&key) {
                timings.total = t0.elapsed();
                return Ok(PipelineRun { program, cache_hit: true, key: Some(key), timings });
            }
        }

        let cache_before = self.template_cache.stats();
        let (program, stages) =
            pm_passes::lower_and_compile(graph, &self.targets, Some(&self.template_cache), budget)?;
        timings.cache = self.template_cache.stats().since(&cache_before);
        timings.lower = stages.lower;
        timings.post_lower = stages.post_lower;
        timings.compile = stages.compile;
        let program = Arc::new(program);
        if let Some((cache, key, _)) = keyed {
            cache.insert(key, Arc::clone(&program));
        }
        timings.total = t0.elapsed();
        Ok(PipelineRun { program, cache_hit: false, key, timings })
    }
}

/// An admission hook over a post-midend [`ProgramKey`]: `false` rejects
/// the program before lowering.
type Gate<'a> = &'a dyn Fn(&ProgramKey) -> bool;

/// What one [`Compiler::pipeline`] run produced.
struct PipelineRun {
    program: Arc<CompiledProgram>,
    cache_hit: bool,
    /// `Some` exactly when the run was given a program cache.
    key: Option<ProgramKey>,
    timings: CompileTimings,
}

/// Result of one [`Compiler::compile_cached_checked`] invocation.
#[derive(Debug, Clone)]
pub struct CachedCompile {
    /// The compiled artifact — shared with the cache, never cloned per
    /// request (partitions can carry tens of thousands of fragments).
    pub program: Arc<CompiledProgram>,
    /// Whether the program cache served the artifact (lower+compile
    /// skipped).
    pub cache_hit: bool,
    /// The content address the artifact was stored/found under.
    pub key: ProgramKey,
    /// Stage timings: on a hit, `lower`/`post_lower`/`compile` are zero
    /// and `cache` is empty.
    pub timings: CompileTimings,
}

/// Wall-clock account of one compile, filled by every entry point.
#[derive(Debug, Clone, Default)]
pub struct CompileTimings {
    /// Lexing, parsing, and semantic analysis.
    pub frontend: Duration,
    /// srDFG generation.
    pub build: Duration,
    /// The whole mid-end ([`PassManager::standard`]).
    pub midend: Duration,
    /// Per-pass timings inside the mid-end (one entry per executed pass
    /// run).
    pub passes: Vec<PassTiming>,
    /// Algorithm 1 lowering.
    pub lower: Duration,
    /// Post-lowering cleanup (marshalling elision, operand pruning).
    pub post_lower: Duration,
    /// Algorithm 2 accelerator-IR compilation.
    pub compile: Duration,
    /// Template-cache activity during this invocation's lowering stage
    /// (delta, not lifetime totals — a warm driver shows hits here).
    pub cache: TemplateCacheStats,
    /// End-to-end wall time.
    pub total: Duration,
}

/// The standard SoC with the whole [`pm_accel::complement`] attached
/// (execution-time counterpart of [`Compiler::cross_domain`], plus the
/// override-only backends).
pub fn standard_soc() -> Soc {
    Soc::with(pm_accel::complement())
}

#[cfg(test)]
mod tests {
    use super::*;
    use srdfg::Tensor;
    use std::collections::HashMap;

    const TWO_DOMAIN: &str = "filt(input float x[64], param float h[64], output float y) {
         index i[0:63];
         y = sum[i](h[i]*x[i]);
     }
     clas(input float f, param float w[2], output float c) {
         c = sigmoid(w[0]*f + w[1]);
     }
     main(input float sig[64], param float taps[64], param float w[2],
          output float cls) {
         float feat;
         DSP: filt(sig, taps, feat);
         DA: clas(feat, w, cls);
     }";

    #[test]
    fn host_only_compilation_single_partition_family() {
        let compiled = Compiler::host_only().compile(TWO_DOMAIN, &Bindings::default()).unwrap();
        for p in compiled.partitions.iter() {
            assert_eq!(p.target, "CPU");
        }
    }

    #[test]
    fn cross_domain_compilation_partitions_and_executes() {
        let compiled = Compiler::cross_domain().compile(TWO_DOMAIN, &Bindings::default()).unwrap();
        let targets: Vec<_> = compiled.partitions.iter().map(|p| p.target.clone()).collect();
        assert!(targets.contains(&"DECO".to_string()), "{targets:?}");
        assert!(targets.contains(&"TABLA".to_string()), "{targets:?}");

        // The lowered graph still computes the right thing.
        let vec_t = |v: Vec<f64>| Tensor::from_vec(pmlang::DType::Float, vec![v.len()], v).unwrap();
        let feeds = HashMap::from([
            ("sig".to_string(), vec_t(vec![0.1; 64])),
            ("taps".to_string(), vec_t(vec![1.0; 64])),
            ("w".to_string(), vec_t(vec![1.0, 0.0])),
        ]);
        let mut m = srdfg::Machine::new((*compiled.graph).clone());
        let out = m.invoke(&feeds).unwrap();
        let expect = 1.0 / (1.0 + (-6.4f64).exp());
        assert!((out["cls"].scalar_value().unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn accelerating_subset_falls_back_elsewhere() {
        let c = Compiler::accelerating(&[Domain::Dsp]);
        let compiled = c.compile(TWO_DOMAIN, &Bindings::default()).unwrap();
        let dsp = compiled.partition(Some(Domain::Dsp)).unwrap();
        let da = compiled.partition(Some(Domain::DataAnalytics)).unwrap();
        assert_eq!(dsp.target, "DECO");
        assert_eq!(da.target, "CPU");
    }

    #[test]
    fn compile_cached_hits_on_repeat_and_skips_lowering() {
        let c = Compiler::cross_domain();
        let cached = |c: &Compiler| {
            c.compile_cached_checked(
                TWO_DOMAIN,
                &Bindings::default(),
                &Budget::unlimited(),
                &|_| true,
            )
            .unwrap()
        };
        let cold = cached(&c);
        assert!(!cold.cache_hit);
        assert!(cold.timings.lower > Duration::ZERO);
        let warm = cached(&c);
        assert!(warm.cache_hit);
        assert_eq!(cold.key, warm.key);
        assert!(Arc::ptr_eq(&cold.program, &warm.program), "hit returns the stored Arc");
        assert_eq!(warm.timings.lower, Duration::ZERO, "lowering skipped on hit");
        assert_eq!(warm.timings.compile, Duration::ZERO, "Algorithm 2 skipped on hit");
        let stats = c.program_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));

        // A host-only driver compiles a different artifact: its key must
        // not collide with the cross-domain one.
        let host = Compiler::host_only();
        let host_cold = cached(&host);
        assert!(!host_cold.cache_hit);
        assert_ne!(host_cold.key, cold.key);
    }

    #[test]
    fn frontend_errors_are_reported() {
        let err = Compiler::host_only().compile("main(", &Bindings::default()).unwrap_err();
        assert!(matches!(err, PolyMathError::Frontend(_)));
    }

    #[test]
    fn soc_runs_cross_domain_compilation() {
        let compiled = Compiler::cross_domain().compile(TWO_DOMAIN, &Bindings::default()).unwrap();
        let soc = standard_soc();
        let report = soc.run(&compiled, &HashMap::new()).unwrap();
        assert!(report.total.seconds > 0.0);
        assert_eq!(report.partitions.len(), compiled.partitions.len());
    }

    #[test]
    fn standard_soc_attaches_every_cross_domain_target() {
        let attached = standard_soc().attached_names();
        let targets = Compiler::cross_domain();
        let domains = targets.targets().accelerated_domains();
        assert_eq!(domains.len(), 5);
        for domain in domains {
            let name = &targets.targets().target(Some(domain)).name;
            assert!(attached.contains(name), "{name} compiles for {domain:?} but is not attached");
        }
    }
}
