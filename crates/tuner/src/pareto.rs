//! Multi-objective Pareto machinery: vector objectives, a deterministic
//! non-dominated front, and a hypervolume-guided TPE sampler.
//!
//! §4.4's ratio objective collapses accuracy, time and energy into one
//! scalar, so a study can only ever output a single "best" trade-off.
//! This module keeps the three axes apart: every trial can carry an
//! [`ObjectiveVector`], the engine accumulates the mutually
//! non-dominated set in a [`ParetoFront`], and the serving layer can
//! later *select* a feasible frontier point instead of re-tuning from
//! scratch. Search stays tractable the SoftNeuro way — dominated points
//! are pruned from promotion ([`promotion_layers`]) so scheduler rungs
//! advance front members first — and the model-based sampler
//! ([`ParetoTpeSampler`]) is an EHVI-style acquisition layered over the
//! existing TPE density machinery: the "good" kernel set is the Pareto
//! front (trimmed by hypervolume contribution when it outgrows the
//! quantile), so candidates maximising `l(x)/g(x)` are exactly those
//! expected to improve the dominated hypervolume.

use edgetune_util::rng::SeedStream;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::objective::{Metric, TrainMeasurement};
use crate::sampler::{Sampler, TpeSampler};
use crate::space::{Config, SearchSpace};
use crate::trial::TrialOutcome;

/// One trial's coordinates in objective space.
///
/// Accuracy is maximised; both costs are minimised and are expressed in
/// the study's active [`Metric`] (seconds for `Runtime`, joules for
/// `Energy`). Internally every comparison runs on the *cost view*
/// ([`ObjectiveVector::costs`]), where accuracy is negated so all three
/// axes minimise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveVector {
    /// Model accuracy reached by the trial (higher is better).
    pub accuracy: f64,
    /// Training-side cost in the active metric (lower is better).
    pub train_cost: f64,
    /// Per-item inference cost in the active metric (lower is better).
    pub inference_cost: f64,
}

impl ObjectiveVector {
    /// Creates a vector.
    ///
    /// # Panics
    ///
    /// Panics if any component is NaN (infinities are allowed — they mark
    /// infeasible axes and lose every dominance comparison they should).
    #[must_use]
    pub fn new(accuracy: f64, train_cost: f64, inference_cost: f64) -> Self {
        assert!(
            !accuracy.is_nan() && !train_cost.is_nan() && !inference_cost.is_nan(),
            "objective vector must not contain NaN"
        );
        ObjectiveVector {
            accuracy,
            train_cost,
            inference_cost,
        }
    }

    /// Builds the vector a train measurement induces under `metric`, or
    /// `None` when the inference side never reported (degraded trials
    /// have no place on a frontier).
    #[must_use]
    pub fn from_measurement(m: &TrainMeasurement, metric: Metric) -> Option<Self> {
        let inference_cost = match metric {
            Metric::Runtime => m.inference_time?.value(),
            Metric::Energy => m.inference_energy?.value(),
        };
        let train_cost = match metric {
            Metric::Runtime => m.train_time.value(),
            Metric::Energy => m.train_energy.value(),
        };
        Some(ObjectiveVector::new(m.accuracy, train_cost, inference_cost))
    }

    /// The all-minimising cost view: `[-accuracy, train, inference]`.
    #[must_use]
    pub fn costs(&self) -> [f64; 3] {
        [-self.accuracy, self.train_cost, self.inference_cost]
    }

    /// True when `self` Pareto-dominates `other`: no worse on every axis
    /// and strictly better on at least one. Deterministic — ties on all
    /// axes dominate in neither direction.
    #[must_use]
    pub fn dominates(&self, other: &ObjectiveVector) -> bool {
        dominates(&self.costs(), &other.costs())
    }
}

/// Pareto dominance on cost views: `a` is no worse than `b` on every axis
/// and strictly better on at least one.
fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    let mut strictly_better = false;
    for i in 0..3 {
        if a[i] > b[i] {
            return false;
        }
        if a[i] < b[i] {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Canonical ordering of vectors: lexicographic on the cost view, so the
/// highest-accuracy points sort first and every tie is broken the same
/// way on every machine.
fn cost_order(a: &ObjectiveVector, b: &ObjectiveVector) -> std::cmp::Ordering {
    let (ca, cb) = (a.costs(), b.costs());
    ca[0]
        .total_cmp(&cb[0])
        .then(ca[1].total_cmp(&cb[1]))
        .then(ca[2].total_cmp(&cb[2]))
}

/// One resident of a [`ParetoFront`]: a configuration, its objective
/// coordinates, and the trial that produced it (the final tie-break).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// The non-dominated configuration.
    pub config: Config,
    /// Its objective coordinates.
    pub vector: ObjectiveVector,
    /// Id of the trial that measured it.
    pub trial: u64,
}

/// The mutually non-dominated set of everything inserted so far.
///
/// The front is **insertion-order invariant**: dominance is transitive,
/// so whichever order points arrive in, the surviving set is exactly the
/// non-dominated subset of all insertions, and [`ParetoFront::points`]
/// returns it in a canonical order (cost view lexicographic, then config
/// key, then trial id). Duplicated coordinates dominate in neither
/// direction and therefore coexist.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParetoFront {
    points: Vec<FrontPoint>,
}

impl ParetoFront {
    /// An empty front.
    #[must_use]
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Number of points on the front.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been inserted (or everything was dominated).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Offers a point to the front. Returns `true` when it joins (it is
    /// not dominated by any resident); residents it dominates are
    /// evicted.
    pub fn insert(&mut self, point: FrontPoint) -> bool {
        if self
            .points
            .iter()
            .any(|p| p.vector.dominates(&point.vector))
        {
            return false;
        }
        self.points.retain(|p| !point.vector.dominates(&p.vector));
        // The residents stay in canonical order, so the newcomer goes
        // after every resident that sorts at or before it. Config keys
        // are formatted only to break cost-view ties.
        let mut key = None;
        let at = self.points.partition_point(|p| {
            cost_order(&p.vector, &point.vector)
                .then_with(|| {
                    let key = key.get_or_insert_with(|| point.config.key());
                    p.config.key().cmp(key)
                })
                .then(p.trial.cmp(&point.trial))
                .is_le()
        });
        self.points.insert(at, point);
        true
    }

    /// The front in canonical order.
    #[must_use]
    pub fn points(&self) -> &[FrontPoint] {
        &self.points
    }

    /// The first `k` points of the canonical order — the deterministic
    /// truncation a `--pareto K` report uses.
    #[must_use]
    pub fn top(&self, k: usize) -> &[FrontPoint] {
        &self.points[..self.points.len().min(k)]
    }

    /// True when no resident dominates another — the front's defining
    /// invariant, exposed so tests can assert it directly.
    #[must_use]
    pub fn is_mutually_non_dominated(&self) -> bool {
        for (i, a) in self.points.iter().enumerate() {
            for b in self.points.iter().skip(i + 1) {
                if a.vector.dominates(&b.vector) || b.vector.dominates(&a.vector) {
                    return false;
                }
            }
        }
        true
    }

    /// Exact dominated hypervolume against `reference` (a point every
    /// resident should dominate; residents outside it contribute
    /// nothing), from one [`hypervolume_sweep`]: O(n²) for n residents.
    #[must_use]
    pub fn hypervolume(&self, reference: [f64; 3]) -> f64 {
        let costs: Vec<[f64; 3]> = self.points.iter().map(|p| p.vector.costs()).collect();
        hypervolume_sweep(&costs, reference).0
    }
}

/// The dominated hypervolume of `costs` against `reference`, and every
/// point's exclusive contribution to it, in one sweep.
///
/// Cost axis 0 is cut into slabs at each distinct value. A slab's cross
/// section is the 2-D staircase (axes 1 and 2) of every point at or
/// below it, walked once over the points pre-sorted by (axis 1, axis 2).
/// Each strip between consecutive axis-1 values is covered from the
/// lowest axis-2 value seen so far up to the reference; the band below
/// the second-lowest value is covered by the lowest point alone and is
/// its exclusive share. Points on or beyond the reference dominate
/// nothing and score 0, and duplicated coordinates cover only shared
/// space, so they score exactly 0. O(n²) for n points: n slabs times an
/// n-point walk, after one sort per axis order.
fn hypervolume_sweep(costs: &[[f64; 3]], reference: [f64; 3]) -> (f64, Vec<f64>) {
    let [rx, ry, rz] = reference;
    let mut contributions = vec![0.0; costs.len()];
    let mut by_x: Vec<usize> = (0..costs.len())
        .filter(|&i| costs[i][0] < rx && costs[i][1] < ry && costs[i][2] < rz)
        .collect();
    let mut by_yz = by_x.clone();
    by_x.sort_by(|&a, &b| costs[a][0].total_cmp(&costs[b][0]));
    by_yz.sort_by(|&a, &b| {
        costs[a][1]
            .total_cmp(&costs[b][1])
            .then(costs[a][2].total_cmp(&costs[b][2]))
    });
    let mut active = vec![false; costs.len()];
    let mut volume = 0.0;
    let mut next = 0;
    while next < by_x.len() {
        // Everything at cost0 <= x is active in this slab.
        let x = costs[by_x[next]][0];
        while next < by_x.len() && costs[by_x[next]][0] <= x {
            active[by_x[next]] = true;
            next += 1;
        }
        let width = by_x.get(next).map_or(rx, |&i| costs[i][0]) - x;

        // Every walked point is inside the reference, so the first one
        // becomes the owner of the lowest axis-2 value.
        let mut area = 0.0;
        let (mut lowest, mut second, mut owner) = (rz, rz, usize::MAX);
        let mut walk = by_yz.iter().copied().filter(|&i| active[i]).peekable();
        while let Some(first) = walk.next() {
            let y = costs[first][1];
            let mut group = Some(first);
            while let Some(i) = group {
                let z = costs[i][2];
                if z < lowest {
                    (second, lowest, owner) = (lowest, z, i);
                } else if z < second {
                    second = z;
                }
                group = walk.next_if(|&j| costs[j][1] <= y);
            }
            let next_y = walk.peek().map_or(ry, |&i| costs[i][1]);
            area += (next_y - y) * (rz - lowest);
            contributions[owner] += width * ((next_y - y) * (second - lowest));
        }
        volume += width * area;
    }
    (volume, contributions)
}

/// Dominance layers of `vectors` (indices into it), from one
/// non-dominated sort: layer 0 is the Pareto front, layer 1 the front of
/// what remains, and so on — the layers peeling fronts off one by one
/// would produce. Members are listed in cost-view lexicographic order.
///
/// A dominator is lexicographically smaller in the cost view, so a pass
/// in that order meets every point's dominators before the point. A
/// point dominated by nothing in layer k is dominated by nothing in any
/// later layer either (a later dominator would itself be dominated from
/// layer k), so each point joins the first layer holding none of its
/// dominators. At most O(n²) dominance checks, far fewer when the
/// layers are many.
fn dominance_layers(vectors: &[ObjectiveVector]) -> Vec<Vec<usize>> {
    // Adding 0.0 folds -0.0 onto 0.0, so the total order agrees with the
    // comparisons dominance makes.
    let keys: Vec<[f64; 3]> = vectors.iter().map(|v| v.costs().map(|c| c + 0.0)).collect();
    let mut order: Vec<usize> = (0..vectors.len()).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = (keys[a], keys[b]);
        ka[0]
            .total_cmp(&kb[0])
            .then(ka[1].total_cmp(&kb[1]))
            .then(ka[2].total_cmp(&kb[2]))
    });
    let mut layers: Vec<Vec<usize>> = Vec::new();
    for i in order {
        // Newest members first: they are the lexicographically closest,
        // so a dominator, if any, tends to turn up sooner.
        let layer = layers
            .iter()
            .position(|members| !members.iter().rev().any(|&j| dominates(&keys[j], &keys[i])))
            .unwrap_or(layers.len());
        if layer == layers.len() {
            layers.push(Vec::new());
        }
        layers[layer].push(i);
    }
    layers
}

/// Non-dominated sorting of a rung's outcomes into dominance layers —
/// the SoftNeuro-style pruning pass scheduler promotion runs on. Layer 0
/// is the Pareto front of the rung, layer 1 the front of what remains,
/// and so on; outcomes without a vector (failed or degraded trials)
/// land in `u32::MAX` so they only ever advance on their scalar score
/// after every vectored trial.
#[must_use]
pub fn promotion_layers(outcomes: &[TrialOutcome]) -> Vec<u32> {
    let (vectored, vectors): (Vec<usize>, Vec<ObjectiveVector>) = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| Some((i, o.vector?)))
        .unzip();
    let mut layers = vec![u32::MAX; outcomes.len()];
    for (layer, members) in (0_u32..).zip(dominance_layers(&vectors)) {
        for i in members {
            layers[vectored[i]] = layer;
        }
    }
    layers
}

// ---------------------------------------------------------------------------
// EHVI-style acquisition over the TPE machinery
// ---------------------------------------------------------------------------

/// Fraction of vector observations treated as the "good" kernel set.
const GOOD_QUANTILE: f64 = 0.25;
/// Candidates drawn per suggestion.
const CANDIDATES: usize = 24;
/// Vector observations required before the model engages.
const MIN_OBSERVATIONS: usize = 8;
/// Cap on retained vector observations (most recent kept).
const MAX_OBSERVATIONS: usize = 256;

/// Multi-objective TPE: the hypervolume-improvement acquisition of
/// EHVI/MOTPE layered over [`TpeSampler`]'s Parzen densities.
///
/// Observations arrive through [`Sampler::observe`] (the scalar
/// observation list of [`Sampler::suggest`] is ignored once enough
/// vectors exist). The "good" set is the current Pareto front — trimmed
/// to the TPE quantile by *hypervolume contribution* when the front is
/// larger, padded by the next dominance layers when it is smaller — so
/// maximising the density ratio `l(x)/g(x)` steers suggestions toward
/// configurations expected to expand the dominated hypervolume.
#[derive(Debug)]
pub struct ParetoTpeSampler {
    rng: StdRng,
    observed: Vec<(Config, ObjectiveVector)>,
}

impl ParetoTpeSampler {
    /// Creates a seeded sampler.
    #[must_use]
    pub fn new(seed: SeedStream) -> Self {
        ParetoTpeSampler {
            // The rng label deliberately matches the scalar TPE sampler:
            // below MIN_OBSERVATIONS both draw the same random stream, so
            // a Pareto study explores the same opening cohort.
            rng: seed.rng("tpe-sampler"),
            observed: Vec::new(),
        }
    }

    /// Number of vector observations retained.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.observed.len()
    }

    /// Reference point for hypervolume bookkeeping: slightly beyond the
    /// worst observed value on every cost axis, so every observation
    /// contributes.
    fn reference(&self) -> [f64; 3] {
        let mut r = [f64::NEG_INFINITY; 3];
        for (_, v) in &self.observed {
            let c = v.costs();
            for i in 0..3 {
                if c[i].is_finite() {
                    r[i] = r[i].max(c[i]);
                }
            }
        }
        r.map(|x| {
            if x.is_finite() {
                x + x.abs() * 0.1 + 1e-9
            } else {
                1.0
            }
        })
    }

    /// Splits the retained observations into (good, bad) index sets of
    /// the TPE quantile size, good-first by dominance layer and, inside
    /// the front, by hypervolume contribution.
    fn split(&self) -> (Vec<usize>, Vec<usize>) {
        let outcomes: Vec<ObjectiveVector> = self.observed.iter().map(|(_, v)| *v).collect();
        let n = outcomes.len();
        let n_good = ((n as f64 * GOOD_QUANTILE).ceil() as usize).clamp(2, n - 1);

        // Inside a layer, order by hypervolume contribution against the
        // shared reference (largest first): when the front alone
        // overflows the quantile, the kept subset is the one EHVI values
        // most. Ties fall back to the canonical cost order.
        let reference = self.reference();
        let mut ordered: Vec<usize> = Vec::with_capacity(n);
        for layer in dominance_layers(&outcomes) {
            let costs: Vec<[f64; 3]> = layer.iter().map(|&i| outcomes[i].costs()).collect();
            let (_, contributions) = hypervolume_sweep(&costs, reference);
            let mut scored: Vec<(usize, f64)> = layer.into_iter().zip(contributions).collect();
            scored.sort_by(|a, b| {
                b.1.total_cmp(&a.1)
                    .then(cost_order(&outcomes[a.0], &outcomes[b.0]))
                    .then(a.0.cmp(&b.0))
            });
            ordered.extend(scored.into_iter().map(|(i, _)| i));
        }
        let bad = ordered.split_off(n_good);
        (ordered, bad)
    }
}

impl Sampler for ParetoTpeSampler {
    fn suggest(&mut self, space: &SearchSpace, _observations: &[(&Config, f64)]) -> Config {
        if self.observed.len() < MIN_OBSERVATIONS {
            return space.sample(&mut self.rng);
        }
        let (good_idx, bad_idx) = self.split();

        // Per-dimension kernel centres in the TPE working coordinates:
        // (name, domain, good centres, bad centres, bandwidth).
        type KernelDim<'a> = (&'a str, &'a crate::space::Domain, Vec<f64>, Vec<f64>, f64);
        let dims: Vec<KernelDim> = space
            .iter()
            .map(|(name, domain)| {
                let centres = |set: &[usize]| -> Vec<f64> {
                    set.iter()
                        .filter_map(|&i| self.observed[i].0.get(name))
                        .map(|v| TpeSampler::transform(domain, v))
                        .collect()
                };
                let good_c = centres(&good_idx);
                let bad_c = centres(&bad_idx);
                let bandwidth =
                    TpeSampler::extent(domain) / (good_c.len().max(1) as f64).sqrt().max(1.0) * 0.6
                        + 1e-6;
                (name, domain, good_c, bad_c, bandwidth)
            })
            .collect();

        let mut best: Option<(Config, f64)> = None;
        for _ in 0..CANDIDATES {
            let mut config = Config::new();
            let mut log_ratio = 0.0;
            for (name, domain, good_c, bad_c, bandwidth) in &dims {
                let coord = if good_c.is_empty() {
                    TpeSampler::transform(domain, domain.sample(&mut self.rng))
                } else {
                    let centre = good_c[self.rng.gen_range(0..good_c.len())];
                    centre + edgetune_util::rng::sample_normal(&mut self.rng, 0.0, *bandwidth)
                };
                let value = TpeSampler::untransform(domain, coord);
                let snapped = TpeSampler::transform(domain, value);
                let l = TpeSampler::density(snapped, good_c, *bandwidth);
                let g = TpeSampler::density(snapped, bad_c, *bandwidth);
                log_ratio += l.ln() - g.ln();
                config.set(*name, value);
            }
            if best.as_ref().is_none_or(|(_, r)| log_ratio > *r) {
                best = Some((config, log_ratio));
            }
        }
        best.expect("at least one candidate").0
    }

    fn observe(&mut self, config: &Config, outcome: &TrialOutcome) {
        if outcome.is_failed() {
            return;
        }
        if let Some(vector) = outcome.vector {
            if vector.costs().iter().all(|c| c.is_finite()) {
                self.observed.push((config.clone(), vector));
                if self.observed.len() > MAX_OBSERVATIONS {
                    self.observed.remove(0);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "pareto-tpe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_util::units::{Joules, Seconds};

    fn vector(acc: f64, train: f64, inf: f64) -> ObjectiveVector {
        ObjectiveVector::new(acc, train, inf)
    }

    fn point(acc: f64, train: f64, inf: f64, trial: u64) -> FrontPoint {
        FrontPoint {
            config: Config::new().with("x", trial as f64),
            vector: vector(acc, train, inf),
            trial,
        }
    }

    #[test]
    fn dominance_is_strict_and_deterministic() {
        let a = vector(0.9, 10.0, 1.0);
        let b = vector(0.8, 12.0, 1.5);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Equal vectors dominate in neither direction.
        assert!(!a.dominates(&a));
        // A trade-off (better accuracy, worse cost) dominates neither way.
        let c = vector(0.95, 20.0, 1.0);
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_components_are_rejected() {
        let _ = vector(f64::NAN, 1.0, 1.0);
    }

    #[test]
    fn from_measurement_follows_the_metric() {
        let m = TrainMeasurement {
            accuracy: 0.8,
            train_time: Seconds::new(100.0),
            train_energy: Joules::new(500.0),
            inference_time: Some(Seconds::new(0.2)),
            inference_energy: Some(edgetune_util::units::JoulesPerItem::new(0.5)),
        };
        let rt = ObjectiveVector::from_measurement(&m, Metric::Runtime).unwrap();
        assert_eq!((rt.train_cost, rt.inference_cost), (100.0, 0.2));
        let en = ObjectiveVector::from_measurement(&m, Metric::Energy).unwrap();
        assert_eq!((en.train_cost, en.inference_cost), (500.0, 0.5));
        let degraded = TrainMeasurement {
            inference_time: None,
            ..m
        };
        assert!(ObjectiveVector::from_measurement(&degraded, Metric::Runtime).is_none());
    }

    #[test]
    fn front_keeps_only_non_dominated_points() {
        let mut front = ParetoFront::new();
        assert!(front.insert(point(0.8, 10.0, 1.0, 0)));
        assert!(front.insert(point(0.9, 20.0, 2.0, 1))); // trade-off: stays
        assert!(!front.insert(point(0.7, 15.0, 1.5, 2))); // dominated by 0
        assert!(front.insert(point(0.95, 5.0, 0.5, 3))); // dominates both
        assert_eq!(front.len(), 1);
        assert_eq!(front.points()[0].trial, 3);
        assert!(front.is_mutually_non_dominated());
    }

    #[test]
    fn front_is_insertion_order_invariant() {
        let pts = [
            point(0.8, 10.0, 1.0, 0),
            point(0.9, 20.0, 2.0, 1),
            point(0.7, 15.0, 1.5, 2),
            point(0.85, 8.0, 3.0, 3),
            point(0.85, 8.0, 3.0, 4), // duplicate coordinates coexist
            point(0.6, 30.0, 4.0, 5),
        ];
        let build = |order: &[usize]| {
            let mut front = ParetoFront::new();
            for &i in order {
                front.insert(pts[i].clone());
            }
            front
        };
        let reference = build(&[0, 1, 2, 3, 4, 5]);
        // A deterministic LCG shuffles the insertion order.
        let mut state = 9_u64;
        for _ in 0..20 {
            let mut order: Vec<usize> = (0..pts.len()).collect();
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            assert_eq!(build(&order), reference, "order {order:?} diverged");
        }
        assert!(reference.is_mutually_non_dominated());
    }

    #[test]
    fn top_truncates_the_canonical_order() {
        let mut front = ParetoFront::new();
        front.insert(point(0.8, 10.0, 1.0, 0));
        front.insert(point(0.9, 20.0, 2.0, 1));
        front.insert(point(0.95, 30.0, 3.0, 2));
        assert_eq!(front.top(2).len(), 2);
        // Canonical order leads with the highest accuracy.
        assert_eq!(front.top(1)[0].vector.accuracy, 0.95);
        assert_eq!(front.top(99).len(), 3);
    }

    #[test]
    fn hypervolume_grows_with_better_points() {
        let reference = [0.0, 100.0, 10.0]; // -accuracy, train, inference
        let mut front = ParetoFront::new();
        front.insert(point(0.5, 50.0, 5.0, 0));
        let hv1 = front.hypervolume(reference);
        assert!(hv1 > 0.0);
        // A non-dominated addition must add volume.
        assert!(front.insert(point(0.9, 80.0, 8.0, 1)));
        let hv2 = front.hypervolume(reference);
        assert!(hv2 > hv1, "{hv2} vs {hv1}");
        // A dominated candidate is refused and adds nothing.
        assert!(!front.insert(point(0.4, 60.0, 6.0, 2)));
        assert_eq!(front.hypervolume(reference), hv2);
    }

    #[test]
    fn hypervolume_matches_a_hand_computed_box_union() {
        // Two boxes against reference (1, 1, 1):
        // a = (-0.5, 0.5, 0.5) -> box 1.5 x 0.5 x 0.5 ... in cost space the
        // dominated region of a point c is the box [c, ref).
        let mut front = ParetoFront::new();
        front.insert(point(0.5, 0.5, 0.5, 0)); // costs (-0.5, 0.5, 0.5)
        let reference = [1.0, 1.0, 1.0];
        let expected = (1.0f64 - -0.5) * (1.0 - 0.5) * (1.0 - 0.5);
        assert!((front.hypervolume(reference) - expected).abs() < 1e-12);
        // Add a disjoint trade-off and check monotonicity + upper bound.
        front.insert(point(0.8, 0.9, 0.9, 1)); // costs (-0.8, 0.9, 0.9)
        let second = (1.0f64 - -0.8) * (1.0 - 0.9) * (1.0 - 0.9);
        let hv = front.hypervolume(reference);
        assert!(hv > expected);
        assert!(hv <= expected + second + 1e-12);
    }

    #[test]
    fn promotion_layers_peel_fronts_and_park_unvectored_trials() {
        let outcome = |acc: f64, train: f64, inf: f64| {
            TrialOutcome::new(1.0, acc, Seconds::new(train), Joules::new(1.0))
                .with_vector(vector(acc, train, inf))
        };
        let outcomes = vec![
            outcome(0.9, 10.0, 1.0),                                          // layer 0
            outcome(0.8, 20.0, 2.0),                                          // dominated: layer 1
            outcome(0.95, 30.0, 3.0),                                         // trade-off: layer 0
            TrialOutcome::new(2.0, 0.5, Seconds::new(1.0), Joules::new(1.0)), // no vector
            outcome(0.7, 25.0, 2.5),                                          // layer 2
        ];
        let layers = promotion_layers(&outcomes);
        assert_eq!(layers[0], 0);
        assert_eq!(layers[1], 1);
        assert_eq!(layers[2], 0);
        assert_eq!(layers[3], u32::MAX);
        assert_eq!(layers[4], 2);
    }

    #[test]
    fn pareto_tpe_is_seeded_and_concentrates_on_the_front() {
        let space = SearchSpace::new()
            .with("x", crate::space::Domain::float(0.0, 1.0))
            .with("y", crate::space::Domain::float(0.0, 1.0));
        // Two conflicting objectives over x: accuracy wants x -> 1, train
        // cost wants x -> 0; y is pure noise both objectives ignore, so a
        // model-based sampler should learn y's irrelevance.
        let measure = |c: &Config| {
            let x = c.get("x").unwrap();
            vector(x, x * 10.0, 1.0)
        };
        let run = |seed: u64| {
            let mut sampler = ParetoTpeSampler::new(SeedStream::new(seed));
            let mut suggestions = Vec::new();
            for i in 0..40 {
                let c = sampler.suggest(&space, &[]);
                let v = measure(&c);
                let outcome =
                    TrialOutcome::new(1.0, v.accuracy, Seconds::new(1.0), Joules::new(1.0))
                        .with_vector(v);
                sampler.observe(&c, &outcome);
                if i >= 30 {
                    suggestions.push(c);
                }
            }
            suggestions
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same suggestions");
        // Everything on the x axis is Pareto-optimal here, so late
        // suggestions must stay in-domain and vary along x.
        for c in &a {
            assert!(space.validate(c).is_ok());
        }
    }

    #[test]
    fn pareto_tpe_ignores_failed_and_degraded_outcomes() {
        let mut sampler = ParetoTpeSampler::new(SeedStream::new(1));
        let config = Config::new().with("x", 0.5);
        sampler.observe(
            &config,
            &TrialOutcome::failed(
                crate::trial::TrialFailure::Crash,
                Seconds::new(1.0),
                Joules::new(1.0),
            ),
        );
        sampler.observe(
            &config,
            &TrialOutcome::new(1.0, 0.5, Seconds::new(1.0), Joules::new(1.0)),
        );
        assert_eq!(sampler.observations(), 0);
        let vectored = TrialOutcome::new(1.0, 0.5, Seconds::new(1.0), Joules::new(1.0))
            .with_vector(vector(0.5, 1.0, 1.0));
        sampler.observe(&config, &vectored);
        assert_eq!(sampler.observations(), 1);
    }

    /// Inclusion–exclusion over every subset of `pts`: the dominated
    /// volume of the union of the boxes `[p, reference)` and each point's
    /// exclusive share, the signed volumes of the subsets containing it.
    fn inclusion_exclusion(pts: &[[f64; 3]], reference: [f64; 3]) -> (f64, Vec<f64>) {
        let mut total = 0.0;
        let mut exclusive = vec![0.0; pts.len()];
        for mask in 1_u32..(1 << pts.len()) {
            let members = || (0..pts.len()).filter(move |i| mask & (1 << i) != 0);
            let mut corner = [f64::NEG_INFINITY; 3];
            for i in members() {
                for axis in 0..3 {
                    corner[axis] = corner[axis].max(pts[i][axis]);
                }
            }
            let sign = if mask.count_ones() % 2 == 1 {
                1.0
            } else {
                -1.0
            };
            let volume: f64 = (0..3)
                .map(|axis| (reference[axis] - corner[axis]).max(0.0))
                .product::<f64>()
                * sign;
            total += volume;
            for i in members() {
                exclusive[i] += volume;
            }
        }
        (total, exclusive)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn hypervolume_and_contributions_match_inclusion_exclusion(
            raw in proptest::collection::vec(
                (0_u8..5, 0_u8..5, 0_u8..5, -1.0f64..1.0, 0.0f64..2.0, 0.0f64..2.0),
                1..=8,
            ),
            on_grid in 0_u8..2,
            duplicate in 0_usize..16,
        ) {
            // Grid coordinates force shared axis values and duplicates;
            // many cases also copy one point over the last. The reference
            // cuts through both ranges, so some points sit on or beyond
            // it and dominate nothing.
            let mut pts: Vec<[f64; 3]> = raw
                .iter()
                .map(|&(a, b, c, x, y, z)| {
                    if on_grid == 1 {
                        [f64::from(a) * 0.5 - 1.0, f64::from(b) * 0.5, f64::from(c) * 0.5]
                    } else {
                        [x, y, z]
                    }
                })
                .collect();
            let last = pts.len() - 1;
            if duplicate < last {
                pts[last] = pts[duplicate];
            }
            let reference = [0.8, 1.5, 1.5];

            let (brute_total, brute_exclusive) = inclusion_exclusion(&pts, reference);
            let tolerance = 1e-9 * brute_total.max(1e-300);

            let mut front = ParetoFront::new();
            for (i, c) in pts.iter().enumerate() {
                front.insert(FrontPoint {
                    config: Config::new(),
                    vector: vector(-c[0], c[1], c[2]),
                    trial: i as u64,
                });
            }
            let total = front.hypervolume(reference);
            proptest::prop_assert!(
                (total - brute_total).abs() <= tolerance,
                "hypervolume {total} vs inclusion-exclusion {brute_total}"
            );

            let (_, contributions) = hypervolume_sweep(&pts, reference);
            for (i, (&got, &want)) in contributions.iter().zip(&brute_exclusive).enumerate() {
                proptest::prop_assert!(
                    (got - want).abs() <= tolerance,
                    "point {i} {:?}: contribution {got} vs inclusion-exclusion {want}",
                    pts[i]
                );
                if pts.iter().enumerate().any(|(j, p)| j != i && *p == pts[i]) {
                    proptest::prop_assert!(got == 0.0, "duplicate {i} scored {got}");
                }
            }
        }

        #[test]
        fn promotion_layers_match_peeling_fronts(
            raw in proptest::collection::vec((0_u8..4, 0_u8..4, 0_u8..4), 1..40),
        ) {
            // A coarse grid makes ties, duplicates and long chains common;
            // accuracies of both 0.0 and -0.0 put both zeros into the cost
            // view, which compare equal but order apart.
            let vectors: Vec<ObjectiveVector> = raw
                .iter()
                .map(|&(a, t, i)| {
                    let accuracy = if a == 0 { -0.0 } else { f64::from(a - 1) * 0.5 };
                    vector(accuracy, f64::from(t), f64::from(i))
                })
                .collect();
            let mut peeled = vec![u32::MAX; vectors.len()];
            let mut remaining: Vec<usize> = (0..vectors.len()).collect();
            for layer in 0_u32.. {
                if remaining.is_empty() {
                    break;
                }
                let front: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&i| !remaining.iter().any(|&j| vectors[j].dominates(&vectors[i])))
                    .collect();
                for &i in &front {
                    peeled[i] = layer;
                }
                remaining.retain(|i| !front.contains(i));
            }
            let outcomes: Vec<TrialOutcome> = vectors
                .iter()
                .map(|&v| {
                    TrialOutcome::new(1.0, v.accuracy, Seconds::new(1.0), Joules::new(1.0))
                        .with_vector(v)
                })
                .collect();
            proptest::prop_assert_eq!(promotion_layers(&outcomes), peeled);
        }
    }
}
