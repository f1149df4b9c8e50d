//! The degradation ladder: ordered fallbacks for a failing dependency.

use serde::{Deserialize, Serialize};

/// One rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Fallback {
    /// Resubmit the request under the retry policy.
    Retry,
    /// Serve the last known cache entry for the key, even if stale.
    StaleCache,
    /// Fall back to the device-model default recommendation (batch 1,
    /// all cores, maximum frequency).
    DeviceDefault,
    /// Give up on the trial and record it with a penalty score so the
    /// scheduler routes budget elsewhere.
    SkipWithPenalty,
    /// Abandon process isolation and run the work in-process on the
    /// supervisor's own thread — the shard fabric's terminal rung when a
    /// worker process exhausts its retry budget.
    InProcess,
}

impl Fallback {
    /// Stable snake_case label for this rung, used as the event name
    /// when degradation steps are recorded on a trace.
    #[must_use]
    pub fn trace_label(self) -> &'static str {
        match self {
            Fallback::Retry => "retry",
            Fallback::StaleCache => "stale_cache",
            Fallback::DeviceDefault => "device_default",
            Fallback::SkipWithPenalty => "skip_with_penalty",
            Fallback::InProcess => "in_process",
        }
    }
}

/// The ordered fallbacks tried when a dependency stops answering.
///
/// The default ladder is retry → stale cache entry → device-model default
/// recommendation → skip the trial with a penalty score, mirroring how an
/// operator would want an unattended tuning job to degrade: prefer any
/// real answer over a guess, and any guess over poisoning the study.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationLadder {
    steps: Vec<Fallback>,
}

impl Default for DegradationLadder {
    fn default() -> Self {
        DegradationLadder {
            steps: vec![
                Fallback::Retry,
                Fallback::StaleCache,
                Fallback::DeviceDefault,
                Fallback::SkipWithPenalty,
            ],
        }
    }
}

impl DegradationLadder {
    /// A custom ladder; rungs are tried in the order given.
    #[must_use]
    pub fn new(steps: Vec<Fallback>) -> Self {
        DegradationLadder { steps }
    }

    /// The rungs, most-preferred first.
    #[must_use]
    pub fn steps(&self) -> &[Fallback] {
        &self.steps
    }
}

/// Counters for every fault observed and every ladder rung exercised.
///
/// All zeros in a fault-free run; serialized into the chaos sections of
/// the tuning report so degradation is observable, not silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DegradationStats {
    /// Injected trial crashes observed (each failed attempt counts).
    pub trial_crashes: u64,
    /// Injected trial stragglers observed.
    pub trial_stragglers: u64,
    /// Trials that hit their deadline and were treated as hung.
    pub trial_timeouts: u64,
    /// Trial retries performed after crashes/timeouts.
    pub trial_retries: u64,
    /// Trials abandoned with a penalty score after exhausting retries.
    pub trials_skipped: u64,
    /// Inference requests whose reply was lost (worker death or a caught
    /// panic).
    pub worker_losses: u64,
    /// Inference requests resubmitted by the ladder's retry rung.
    pub inference_retries: u64,
    /// Trials served from a stale cache entry.
    pub stale_cache_served: u64,
    /// Trials served the device-model default recommendation.
    pub default_recommendations: u64,
}

impl DegradationStats {
    /// True when nothing was ever injected or degraded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == DegradationStats::default()
    }

    /// The counters as stable (name, value) pairs, in field order —
    /// the shape trace counter events and report tooling consume.
    #[must_use]
    pub fn as_counters(&self) -> Vec<(String, f64)> {
        vec![
            ("trial_crashes".to_string(), self.trial_crashes as f64),
            ("trial_stragglers".to_string(), self.trial_stragglers as f64),
            ("trial_timeouts".to_string(), self.trial_timeouts as f64),
            ("trial_retries".to_string(), self.trial_retries as f64),
            ("trials_skipped".to_string(), self.trials_skipped as f64),
            ("worker_losses".to_string(), self.worker_losses as f64),
            (
                "inference_retries".to_string(),
                self.inference_retries as f64,
            ),
            (
                "stale_cache_served".to_string(),
                self.stale_cache_served as f64,
            ),
            (
                "default_recommendations".to_string(),
                self.default_recommendations as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_prefers_answers_over_guesses() {
        let ladder = DegradationLadder::default();
        assert_eq!(
            ladder.steps(),
            [
                Fallback::Retry,
                Fallback::StaleCache,
                Fallback::DeviceDefault,
                Fallback::SkipWithPenalty,
            ]
        );
    }

    #[test]
    fn stats_start_empty_and_notice_any_counter() {
        let mut stats = DegradationStats::default();
        assert!(stats.is_empty());
        stats.stale_cache_served += 1;
        assert!(!stats.is_empty());
    }

    #[test]
    fn trace_labels_match_the_serde_names() {
        for rung in [
            Fallback::Retry,
            Fallback::StaleCache,
            Fallback::DeviceDefault,
            Fallback::SkipWithPenalty,
        ] {
            let json = serde_json::to_string(&rung).unwrap();
            assert_eq!(json, format!("\"{}\"", rung.trace_label()));
        }
    }

    #[test]
    fn counters_cover_every_field() {
        let stats = DegradationStats {
            trial_crashes: 1,
            trial_stragglers: 2,
            trial_timeouts: 3,
            trial_retries: 4,
            trials_skipped: 5,
            worker_losses: 6,
            inference_retries: 7,
            stale_cache_served: 8,
            default_recommendations: 9,
        };
        let counters = stats.as_counters();
        assert_eq!(counters.len(), 9);
        let total: f64 = counters.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 45.0);
        assert_eq!(counters[0], ("trial_crashes".to_string(), 1.0));
        assert_eq!(counters[8].0, "default_recommendations");
    }

    #[test]
    fn ladder_round_trips_through_json() {
        let ladder = DegradationLadder::default();
        let json = serde_json::to_string(&ladder).unwrap();
        let back: DegradationLadder = serde_json::from_str(&json).unwrap();
        assert_eq!(ladder, back);
    }
}
