//! Cluster applications: workloads whose tasks travel between
//! processes as [`WireTask`] payloads.
//!
//! Unlike the in-process [`distws_core::Workload`] trait (closures
//! over shared memory), a cluster task must be *serializable* and
//! *re-executable*: its payload carries everything needed to run it at
//! any place, and running it twice produces the same children and the
//! same contribution — which is what makes crash recovery sound (a
//! re-homed task re-executes from its payload) and checkable (the
//! merged trace proves effective exactly-once completion).
//!
//! Results are `Vec<u64>` contributions folded element-wise with
//! wrapping addition up the task tree; the coordinator validates the
//! root fold against a sequentially computed expectation.

use crate::wire::WireTask;
use distws_core::rng::mix64;
use distws_core::{Locality, SplitMix64};

/// Spawn interface handed to [`ClusterApp::execute`]: the place
/// runtime assigns ids, routes children to their home place, and
/// wires up completion accounting.
pub trait ClusterScope {
    /// Spawn a child of the currently executing task. `locality`
    /// governs migration (`Sensitive` children execute at their home
    /// place); `est` feeds chunking heuristics.
    fn spawn(&mut self, locality: Locality, kind: u16, est: u64, payload: Vec<u64>);
}

/// A workload runnable across place processes.
pub trait ClusterApp: Send + Sync {
    /// Application name (reports, trace file names).
    fn name(&self) -> &'static str;

    /// Root tasks for `round`, given the folded result of the
    /// previous round (`None` for round 0). Return `None` to end the
    /// run; the final result is the last round's fold.
    fn roots(&self, round: u32, prev: Option<&[u64]>) -> Option<Vec<RootSpec>>;

    /// Execute one task: optionally spawn children, return this
    /// task's own contribution. Must be deterministic in `task`.
    fn execute(&self, task: &WireTask, scope: &mut dyn ClusterScope) -> Vec<u64>;

    /// Check the final folded result.
    fn validate(&self, result: &[u64]) -> Result<(), String>;
}

/// A root task before the coordinator assigns ids and homes.
pub struct RootSpec {
    /// Locality class.
    pub locality: Locality,
    /// Application task-kind discriminant.
    pub kind: u16,
    /// Estimated cost.
    pub est: u64,
    /// Task payload.
    pub payload: Vec<u64>,
}

/// Locality ⇄ wire byte.
pub fn locality_to_wire(l: Locality) -> u8 {
    match l {
        Locality::Sensitive => 0,
        Locality::Flexible => 1,
    }
}

/// Inverse of [`locality_to_wire`] (unknown bytes read as `Sensitive`,
/// the conservative choice: never migrated).
pub fn locality_from_wire(b: u8) -> Locality {
    if b == 1 {
        Locality::Flexible
    } else {
        Locality::Sensitive
    }
}

/// An app instance by CLI name. An optional `@N` suffix scales the
/// workload — `quicksort@64` sorts 64 root segments instead of
/// [`Quicksort::ROOTS`], `kmeans@12` runs 12 Lloyd iterations instead
/// of [`KMeans::ROUNDS`] — so fault-injection runs can be stretched
/// long enough for a kill to land mid-computation.
pub fn app_by_name(name: &str, seed: u64) -> Option<Box<dyn ClusterApp>> {
    let (base, size) = match name.split_once('@') {
        Some((base, n)) => (base, Some(n.parse::<u32>().ok()?.max(1))),
        None => (name, None),
    };
    match base {
        "quicksort" | "qs" => Some(Box::new(Quicksort::sized(
            seed,
            size.map(|n| n as usize).unwrap_or(Quicksort::ROOTS),
        ))),
        "kmeans" | "k-means" => Some(Box::new(KMeans::sized(
            seed,
            size.unwrap_or(KMeans::ROUNDS),
        ))),
        _ => None,
    }
}

// ---------------------------------------------------------------- quicksort

/// Parallel quicksort over seeded data carried in task payloads.
///
/// Each root covers one segment of the input; a task partitions its
/// slice around a pivot and spawns one child per side, sorting
/// in-place once a slice fits [`Quicksort::LEAF`]. The contribution is
/// a commutative multiset digest `[count, Σx, Σ mix64(x)]` — any
/// execution order (and any re-execution after a crash, since
/// contributions are folded exactly once per task id) must reproduce
/// the digest of the original input.
pub struct Quicksort {
    seed: u64,
    roots: usize,
    expected: Vec<u64>,
}

impl Quicksort {
    /// Elements per root segment.
    pub const SEGMENT: usize = 4096;
    /// Default number of root segments.
    pub const ROOTS: usize = 8;
    /// Below this, sort sequentially.
    pub const LEAF: usize = 512;

    /// A quicksort instance over data derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::sized(seed, Self::ROOTS)
    }

    /// A quicksort instance with `roots` segments (workload scaling).
    pub fn sized(seed: u64, roots: usize) -> Self {
        let mut expected = vec![0u64; 3];
        for r in 0..roots {
            for x in Self::segment(seed, r) {
                expected[0] = expected[0].wrapping_add(1);
                expected[1] = expected[1].wrapping_add(x);
                expected[2] = expected[2].wrapping_add(mix64(x));
            }
        }
        Quicksort {
            seed,
            roots,
            expected,
        }
    }

    fn segment(seed: u64, r: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed ^ mix64(r as u64 + 1));
        (0..Self::SEGMENT).map(|_| rng.next_u64() >> 16).collect()
    }

    fn digest(slice: &[u64]) -> Vec<u64> {
        let mut d = vec![0u64; 3];
        for &x in slice {
            d[0] = d[0].wrapping_add(1);
            d[1] = d[1].wrapping_add(x);
            d[2] = d[2].wrapping_add(mix64(x));
        }
        d
    }
}

impl ClusterApp for Quicksort {
    fn name(&self) -> &'static str {
        "quicksort"
    }

    fn roots(&self, round: u32, _prev: Option<&[u64]>) -> Option<Vec<RootSpec>> {
        if round > 0 {
            return None;
        }
        Some(
            (0..self.roots)
                .map(|r| RootSpec {
                    locality: Locality::Flexible,
                    kind: 0,
                    est: Self::SEGMENT as u64 * 100,
                    payload: Self::segment(self.seed, r),
                })
                .collect(),
        )
    }

    fn execute(&self, task: &WireTask, scope: &mut dyn ClusterScope) -> Vec<u64> {
        let data = &task.payload;
        if data.len() <= Self::LEAF {
            let mut sorted = data.clone();
            sorted.sort_unstable();
            // The sort is the work; the digest is what travels up.
            return Self::digest(&sorted);
        }
        // Median-of-three pivot keeps recursion depth sane on the
        // (already random) data without biasing the digest.
        let a = data[0];
        let b = data[data.len() / 2];
        let c = data[data.len() - 1];
        let pivot = a.max(b).min(a.min(b).max(c));
        let lo: Vec<u64> = data.iter().copied().filter(|&x| x < pivot).collect();
        let hi: Vec<u64> = data.iter().copied().filter(|&x| x > pivot).collect();
        let mid = data.len() - lo.len() - hi.len(); // pivot duplicates
        for side in [lo, hi] {
            if !side.is_empty() {
                let est = side.len() as u64 * 100;
                scope.spawn(Locality::Flexible, 0, est, side);
            }
        }
        // Contribution of the duplicates retained at this node.
        let mut d = vec![0u64; 3];
        d[0] = mid as u64;
        d[1] = (pivot).wrapping_mul(mid as u64);
        d[2] = mix64(pivot).wrapping_mul(mid as u64);
        d
    }

    fn validate(&self, result: &[u64]) -> Result<(), String> {
        if result == self.expected.as_slice() {
            Ok(())
        } else {
            Err(format!(
                "quicksort digest mismatch: got {result:?}, want {:?}",
                self.expected
            ))
        }
    }
}

// ------------------------------------------------------------------ k-means

/// Lloyd's k-means over points regenerated per chunk from the seed.
///
/// Each round is one Lloyd iteration driven by the coordinator: the
/// previous round's fold carries the centroids (fixed-point), each
/// root task re-generates its chunk of points from the seed, assigns
/// them to the nearest centroid, and contributes per-centroid counts
/// and coordinate sums; the coordinator derives the next centroids
/// from the fold. Tasks are pure functions of `(seed, chunk, round
/// centroids)`, so re-execution after a crash is exact.
pub struct KMeans {
    seed: u64,
    rounds: u32,
}

impl KMeans {
    /// Cluster count.
    pub const K: usize = 8;
    /// Point dimensionality.
    pub const DIM: usize = 4;
    /// Chunks (= root tasks per round).
    pub const CHUNKS: usize = 16;
    /// Points per chunk.
    pub const POINTS: usize = 2048;
    /// Default Lloyd iterations.
    pub const ROUNDS: u32 = 5;
    /// Fixed-point scale for centroid coordinates.
    pub const SCALE: u64 = 1 << 16;

    /// A k-means instance over points derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Self::sized(seed, Self::ROUNDS)
    }

    /// A k-means instance running `rounds` Lloyd iterations.
    pub fn sized(seed: u64, rounds: u32) -> Self {
        KMeans { seed, rounds }
    }

    /// Layout of a round's fold: `K * (1 + DIM)` words — per centroid
    /// a count then `DIM` coordinate sums (fixed-point).
    pub const FOLD_LEN: usize = Self::K * (1 + Self::DIM);

    fn point(seed: u64, chunk: usize, i: usize) -> [u64; Self::DIM] {
        let mut rng = SplitMix64::new(seed ^ mix64((chunk as u64) << 32 | i as u64));
        // Points in [0, 1024) fixed-point, clustered around K anchors.
        let anchor = (rng.next_u64() % Self::K as u64) * 128;
        let mut p = [0u64; Self::DIM];
        for d in p.iter_mut() {
            *d = (anchor + rng.next_u64() % 64) * Self::SCALE;
        }
        p
    }

    fn initial_centroids() -> Vec<u64> {
        // Spread along the diagonal; encoded like a fold so round 0
        // and rounds 1+ share the payload shape.
        let mut fold = vec![0u64; Self::FOLD_LEN];
        for k in 0..Self::K {
            fold[k * (1 + Self::DIM)] = 1;
            for d in 0..Self::DIM {
                fold[k * (1 + Self::DIM) + 1 + d] = (k as u64 * 128 + 32) * Self::SCALE;
            }
        }
        fold
    }

    /// Centroids (fixed-point) from a fold: sum/count per coordinate,
    /// keeping the previous centroid when a cluster went empty.
    pub fn centroids_from_fold(fold: &[u64]) -> Vec<u64> {
        let mut cs = vec![0u64; Self::K * Self::DIM];
        for k in 0..Self::K {
            let base = k * (1 + Self::DIM);
            let count = fold[base].max(1);
            for d in 0..Self::DIM {
                cs[k * Self::DIM + d] = fold[base + 1 + d] / count;
            }
        }
        cs
    }

    fn assign(point: &[u64; Self::DIM], centroids: &[u64]) -> usize {
        let mut best = 0usize;
        let mut best_d = u64::MAX;
        for k in 0..Self::K {
            let mut dist = 0u64;
            for d in 0..Self::DIM {
                let diff = point[d].abs_diff(centroids[k * Self::DIM + d]);
                // Scale down before squaring so the sum can't wrap.
                let diff = diff / Self::SCALE;
                dist = dist.saturating_add(diff * diff);
            }
            if dist < best_d {
                best_d = dist;
                best = k;
            }
        }
        best
    }

    fn chunk_fold(seed: u64, chunk: usize, centroids: &[u64]) -> Vec<u64> {
        let mut fold = vec![0u64; Self::FOLD_LEN];
        for i in 0..Self::POINTS {
            let p = Self::point(seed, chunk, i);
            let k = Self::assign(&p, centroids);
            let base = k * (1 + Self::DIM);
            fold[base] = fold[base].wrapping_add(1);
            for d in 0..Self::DIM {
                fold[base + 1 + d] = fold[base + 1 + d].wrapping_add(p[d]);
            }
        }
        fold
    }

    /// The whole computation, sequentially (validation oracle).
    pub fn sequential_final(seed: u64, rounds: u32) -> Vec<u64> {
        let mut fold = Self::initial_centroids();
        for _ in 0..rounds {
            let centroids = Self::centroids_from_fold(&fold);
            let mut next = vec![0u64; Self::FOLD_LEN];
            for chunk in 0..Self::CHUNKS {
                let f = Self::chunk_fold(seed, chunk, &centroids);
                for (a, b) in next.iter_mut().zip(&f) {
                    *a = a.wrapping_add(*b);
                }
            }
            fold = next;
        }
        fold
    }
}

impl ClusterApp for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn roots(&self, round: u32, prev: Option<&[u64]>) -> Option<Vec<RootSpec>> {
        if round >= self.rounds {
            return None;
        }
        let fold = match prev {
            Some(f) => f.to_vec(),
            None => Self::initial_centroids(),
        };
        let centroids = Self::centroids_from_fold(&fold);
        Some(
            (0..Self::CHUNKS)
                .map(|chunk| {
                    let mut payload = vec![chunk as u64];
                    payload.extend_from_slice(&centroids);
                    RootSpec {
                        locality: Locality::Flexible,
                        kind: 1,
                        est: Self::POINTS as u64 * 50,
                        payload,
                    }
                })
                .collect(),
        )
    }

    fn execute(&self, task: &WireTask, _scope: &mut dyn ClusterScope) -> Vec<u64> {
        let chunk = task.payload[0] as usize;
        let centroids = &task.payload[1..];
        Self::chunk_fold(self.seed, chunk, centroids)
    }

    fn validate(&self, result: &[u64]) -> Result<(), String> {
        let want = Self::sequential_final(self.seed, self.rounds);
        if result == want.as_slice() {
            Ok(())
        } else {
            Err(format!(
                "kmeans fold mismatch: got {result:?}, want {want:?}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CollectScope(Vec<(Locality, u16, u64, Vec<u64>)>);
    impl ClusterScope for CollectScope {
        fn spawn(&mut self, locality: Locality, kind: u16, est: u64, payload: Vec<u64>) {
            self.0.push((locality, kind, est, payload));
        }
    }

    /// Drive an app to completion sequentially through the trait —
    /// the result must validate, proving payload-only re-execution
    /// carries enough state.
    fn run_sequential(app: &dyn ClusterApp) -> Vec<u64> {
        let mut prev: Option<Vec<u64>> = None;
        let mut round = 0u32;
        while let Some(roots) = app.roots(round, prev.as_deref()) {
            let mut fold: Option<Vec<u64>> = None;
            let mut stack: Vec<WireTask> = roots
                .into_iter()
                .enumerate()
                .map(|(i, r)| WireTask {
                    id: mix64((round as u64) << 32 | i as u64),
                    home: 0,
                    locality: locality_to_wire(r.locality),
                    flags: 0,
                    kind: r.kind,
                    est: r.est,
                    payload: r.payload,
                })
                .collect();
            while let Some(t) = stack.pop() {
                let mut scope = CollectScope(Vec::new());
                let contrib = app.execute(&t, &mut scope);
                match &mut fold {
                    None => fold = Some(contrib),
                    Some(f) => {
                        for (a, b) in f.iter_mut().zip(&contrib) {
                            *a = a.wrapping_add(*b);
                        }
                    }
                }
                for (i, (loc, kind, est, payload)) in scope.0.into_iter().enumerate() {
                    stack.push(WireTask {
                        id: mix64(t.id ^ (i as u64 + 1)),
                        home: 0,
                        locality: locality_to_wire(loc),
                        flags: 0,
                        kind,
                        est,
                        payload,
                    });
                }
            }
            prev = fold;
            round += 1;
        }
        prev.expect("at least one round")
    }

    #[test]
    fn quicksort_validates_sequentially() {
        let app = Quicksort::new(0xACE);
        let result = run_sequential(&app);
        app.validate(&result).unwrap();
    }

    #[test]
    fn quicksort_rejects_corrupt_digest() {
        let app = Quicksort::new(0xACE);
        let mut result = run_sequential(&app);
        result[1] ^= 1;
        assert!(app.validate(&result).is_err());
    }

    #[test]
    fn kmeans_validates_sequentially() {
        let app = KMeans::new(7);
        let result = run_sequential(&app);
        app.validate(&result).unwrap();
    }

    #[test]
    fn kmeans_execute_is_deterministic() {
        let app = KMeans::new(7);
        let roots = app.roots(0, None).unwrap();
        let t = WireTask {
            id: 1,
            home: 0,
            locality: 1,
            flags: 0,
            kind: 1,
            est: roots[3].est,
            payload: roots[3].payload.clone(),
        };
        let mut s1 = CollectScope(Vec::new());
        let mut s2 = CollectScope(Vec::new());
        assert_eq!(app.execute(&t, &mut s1), app.execute(&t, &mut s2));
    }

    #[test]
    fn unknown_app_name_is_none() {
        assert!(app_by_name("nope", 1).is_none());
        assert!(app_by_name("quicksort", 1).is_some());
        assert!(app_by_name("kmeans", 1).is_some());
    }

    #[test]
    fn sized_app_names_parse_and_validate() {
        assert!(app_by_name("quicksort@0x", 1).is_none());
        assert!(app_by_name("quicksort@", 1).is_none());
        let qs = app_by_name("quicksort@2", 0xACE).unwrap();
        qs.validate(&run_sequential(qs.as_ref())).unwrap();
        let km = app_by_name("kmeans@2", 7).unwrap();
        km.validate(&run_sequential(km.as_ref())).unwrap();
    }
}
