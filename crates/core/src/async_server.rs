//! The Inference Tuning Server's request path.
//!
//! Algorithm 1 calls the inference server with `async` semantics: the
//! Model Tuning Server fires a request when a trial *starts* and collects
//! the answer when the trial *ends*, so inference tuning is pipelined with
//! training and "does not add any overhead to the main process" (§3.3).
//! That overlap lives on the simulated clock: the evaluator charges a
//! trial only the sweep's excess over its training run. The request
//! itself is answered inline on the caller's thread — the evaluator
//! submits one request and needs its reply before the next, so a
//! background thread would only add hand-offs.
//!
//! Engine shards never submit requests here: they measure phase A only,
//! and every request is issued by the sequential phase B, so Algorithm
//! 1's memoisation — one sweep per architecture, ever — holds for any
//! shard count.

use std::panic::{catch_unwind, AssertUnwindSafe};

use edgetune_device::profile::WorkProfile;
use edgetune_faults::FaultInjector;
use edgetune_util::units::{Joules, Seconds};
use edgetune_util::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, HistoricalCache};
use crate::inference::{InferenceRecommendation, InferenceTuningServer};

/// The answer to one inference-tuning request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReply {
    /// The deployment recommendation for the requested architecture.
    pub recommendation: InferenceRecommendation,
    /// Simulated duration the tuning sweep took (zero on a cache hit).
    pub runtime: Seconds,
    /// Simulated energy the tuning sweep consumed (zero on a cache hit).
    pub energy: Joules,
    /// Whether the answer came from the historical database.
    pub cache_hit: bool,
}

/// Per-server fault counters (observability for chaos runs).
#[derive(Debug, Default)]
struct FaultCounters {
    /// Real panics caught (and survived) while handling a request.
    panics: u64,
    /// Requests dropped by injected worker deaths.
    injected_losses: u64,
    /// Sweeps delayed by injected transient device outages.
    injected_outages: u64,
}

/// The Inference Tuning Server plus the historical cache it consults.
///
/// # Examples
///
/// ```
/// use edgetune::async_server::AsyncInferenceServer;
/// use edgetune::cache::{CacheKey, HistoricalCache};
/// use edgetune::inference::{InferenceSpace, InferenceTuningServer};
/// use edgetune_device::{DeviceSpec, WorkProfile};
/// use edgetune_tuner::objective::InferenceObjective;
/// use edgetune_tuner::Metric;
///
/// let device = DeviceSpec::raspberry_pi_3b();
/// let space = InferenceSpace::for_device(&device);
/// let inner = InferenceTuningServer::new(device, space, InferenceObjective::new(Metric::Runtime))?;
/// let mut server = AsyncInferenceServer::start(inner, HistoricalCache::new());
/// let key = CacheKey::new("Raspberry Pi 3B+", "ResNet/layers=18", Metric::Runtime);
/// let reply = server.submit(key, WorkProfile::new(0.56e9, 3.0e6, 44.8e6))?;
/// assert!(!reply.cache_hit);
/// # Ok::<(), edgetune_util::Error>(())
/// ```
#[derive(Debug)]
pub struct AsyncInferenceServer {
    server: InferenceTuningServer,
    cache: HistoricalCache,
    caching: bool,
    faults: Option<FaultInjector>,
    counters: FaultCounters,
    next_seq: u64,
}

impl AsyncInferenceServer {
    /// A server with the historical cache enabled — the paper's
    /// configuration.
    #[must_use]
    pub fn start(server: InferenceTuningServer, cache: HistoricalCache) -> Self {
        Self::start_with_options(server, cache, true)
    }

    /// A server that consults the historical cache only when `caching`
    /// is set (`caching = false` is the ablation of §3.4's look-up
    /// feature).
    #[must_use]
    pub fn start_with_options(
        server: InferenceTuningServer,
        cache: HistoricalCache,
        caching: bool,
    ) -> Self {
        Self::start_supervised(server, cache, caching, None, 0)
    }

    /// A server with a fault injector and the request-sequence cursor to
    /// resume from (chaos runs; checkpoint/resume). With `faults: None`
    /// and `first_seq: 0` this is exactly
    /// [`AsyncInferenceServer::start_with_options`].
    #[must_use]
    pub fn start_supervised(
        server: InferenceTuningServer,
        cache: HistoricalCache,
        caching: bool,
        faults: Option<FaultInjector>,
        first_seq: u64,
    ) -> Self {
        AsyncInferenceServer {
            server,
            cache,
            caching,
            faults,
            counters: FaultCounters::default(),
            next_seq: first_seq,
        }
    }

    /// Tunes `profile`'s deployment (or serves it from the historical
    /// cache) and returns the reply.
    ///
    /// Fault decisions are keyed by the request's sequence number, so
    /// injected chaos depends only on submission order. A real panic in
    /// request handling is caught and counted instead of unwinding into
    /// the caller, who sees the reply as lost and degrades.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Channel`] when the reply is lost: an injected
    /// worker death, or a caught panic.
    pub fn submit(&mut self, key: CacheKey, profile: WorkProfile) -> Result<InferenceReply> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(injector) = &self.faults {
            if injector.worker_panic(seq) {
                // Simulated worker death mid-request: the request is
                // dropped without an answer, exactly what the requester
                // of a panicked worker observes — minus the backtrace.
                self.counters.injected_losses += 1;
                return Err(Error::channel("inference reply lost"));
            }
        }
        let handled = catch_unwind(AssertUnwindSafe(|| self.handle(&key, &profile)));
        let Ok(mut reply) = handled else {
            self.counters.panics += 1;
            return Err(Error::channel("inference request panicked"));
        };
        if let Some(injector) = &self.faults {
            if !reply.cache_hit {
                if let Some(outage) = injector.device_outage(seq) {
                    // Transient device unavailability: the sweep is
                    // retried once the device returns, so its effective
                    // runtime stretches by the outage.
                    reply.runtime += outage;
                    self.counters.injected_outages += 1;
                }
            }
        }
        Ok(reply)
    }

    fn handle(&mut self, key: &CacheKey, profile: &WorkProfile) -> InferenceReply {
        if self.caching {
            if let Some(hit) = self.cache.lookup(key) {
                return InferenceReply {
                    recommendation: hit,
                    runtime: Seconds::ZERO,
                    energy: Joules::ZERO,
                    cache_hit: true,
                };
            }
        } else {
            self.cache.note_miss();
        }
        let (recommendation, cost) = self.server.tune(profile);
        if self.caching {
            self.cache.store(key, recommendation.clone());
        }
        InferenceReply {
            recommendation,
            runtime: cost.runtime,
            energy: cost.energy,
            cache_hit: false,
        }
    }

    /// A snapshot of the historical cache.
    #[must_use]
    pub fn cache_snapshot(&self) -> HistoricalCache {
        self.cache.clone()
    }

    /// The cache's current hit/miss counters, read without cloning the
    /// entry table. This is the single tally both trace counter events
    /// and checkpoint manifests read, so the numbers can never diverge.
    #[must_use]
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Reads a cache entry without touching statistics — the stale-cache
    /// rung of the degradation ladder.
    #[must_use]
    pub fn peek(&self, key: &CacheKey) -> Option<InferenceRecommendation> {
        self.cache.peek(key).cloned()
    }

    /// Requests submitted so far — the inference-side fault cursor a
    /// study checkpoint stores.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Real panics caught while handling requests.
    #[must_use]
    pub fn worker_panics(&self) -> u64 {
        self.counters.panics
    }

    /// Requests dropped by injected worker deaths.
    #[must_use]
    pub fn injected_losses(&self) -> u64 {
        self.counters.injected_losses
    }

    /// Sweeps delayed by injected device outages.
    #[must_use]
    pub fn injected_outages(&self) -> u64 {
        self.counters.injected_outages
    }

    /// Consumes the server, returning the final cache.
    #[must_use]
    pub fn shutdown(self) -> HistoricalCache {
        self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::InferenceSpace;
    use edgetune_device::spec::DeviceSpec;
    use edgetune_tuner::objective::InferenceObjective;
    use edgetune_tuner::Metric;

    fn inner() -> InferenceTuningServer {
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        InferenceTuningServer::new(device, space, InferenceObjective::new(Metric::Runtime)).unwrap()
    }

    fn start() -> AsyncInferenceServer {
        AsyncInferenceServer::start(inner(), HistoricalCache::new())
    }

    fn key(arch: &str) -> CacheKey {
        CacheKey::new("Raspberry Pi 3B+", arch, Metric::Runtime)
    }

    fn profile() -> WorkProfile {
        WorkProfile::new(0.56e9, 3.0e6, 44.8e6)
    }

    #[test]
    fn first_request_misses_second_hits() {
        let mut server = start();
        let first = server.submit(key("ResNet/layers=18"), profile()).unwrap();
        assert!(!first.cache_hit);
        assert!(first.runtime.value() > 0.0);
        let second = server.submit(key("ResNet/layers=18"), profile()).unwrap();
        assert!(
            second.cache_hit,
            "same architecture must be served from history"
        );
        assert_eq!(second.runtime, Seconds::ZERO);
        assert_eq!(second.recommendation, first.recommendation);
    }

    #[test]
    fn different_architectures_are_tuned_separately() {
        let mut server = start();
        let light = server.submit(key("light"), profile()).unwrap();
        let heavy = server
            .submit(key("heavy"), WorkProfile::new(8.5e9, 30.0e6, 246.0e6))
            .unwrap();
        assert!(!light.cache_hit && !heavy.cache_hit);
        assert!(heavy.recommendation.throughput.value() < light.recommendation.throughput.value());
        assert_eq!(server.cache_snapshot().len(), 2);
    }

    #[test]
    fn shutdown_returns_populated_cache() {
        let mut server = start();
        server.submit(key("a"), profile()).unwrap();
        let cache = server.shutdown();
        assert_eq!(cache.len(), 1);
    }

    fn start_supervised(plan: edgetune_faults::FaultPlan) -> AsyncInferenceServer {
        use edgetune_util::rng::SeedStream;
        AsyncInferenceServer::start_supervised(
            inner(),
            HistoricalCache::new(),
            true,
            Some(FaultInjector::new(plan, SeedStream::new(77))),
            0,
        )
    }

    #[test]
    fn injected_worker_death_drops_the_reply_but_not_the_server() {
        use edgetune_faults::FaultPlan;
        // Every request's worker dies: the requester sees a lost reply,
        // yet the server keeps accepting and the process survives.
        let mut server = start_supervised(FaultPlan::none().with_worker_panic(1.0));
        assert!(server.submit(key("doomed"), profile()).is_err());
        assert_eq!(server.injected_losses(), 1);
        assert!(server.submit(key("also-doomed"), profile()).is_err());
        assert_eq!(server.injected_losses(), 2);
        assert_eq!(server.submitted(), 2);
        assert_eq!(server.worker_panics(), 0);
    }

    #[test]
    fn injected_outage_stretches_the_sweep_runtime() {
        use edgetune_faults::FaultPlan;
        let plan = FaultPlan {
            device_outage: 1.0,
            outage_duration_s: 30.0,
            ..FaultPlan::none()
        };
        let mut server = start_supervised(plan);
        let first = server.submit(key("a"), profile()).unwrap();
        assert!(
            first.runtime.value() >= 30.0,
            "the outage must extend the sweep: {}",
            first.runtime
        );
        assert_eq!(server.injected_outages(), 1);
        // Cache hits never touch the device, so they see no outage.
        let hit = server.submit(key("a"), profile()).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.runtime, Seconds::ZERO);
        assert_eq!(server.injected_outages(), 1);
    }

    #[test]
    fn cache_stats_accessor_matches_the_snapshot_tally() {
        let mut server = start();
        server.submit(key("a"), profile()).unwrap();
        server.submit(key("a"), profile()).unwrap();
        let stats = server.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(server.cache_snapshot().stats(), stats);
    }

    #[test]
    fn unsupervised_server_reports_zero_fault_counters() {
        let mut server = start();
        server.submit(key("a"), profile()).unwrap();
        assert_eq!(server.worker_panics(), 0);
        assert_eq!(server.injected_losses(), 0);
        assert_eq!(server.injected_outages(), 0);
    }
}
