//! Seeded input generators. Every workload input is a pure function of
//! the `--seed` argument; the library under test only ever sees the
//! generated relations, bindings and deltas.

use faqs_hypergraph::{cycle_query, star_query, EdgeId, Var};
use faqs_relation::{BcqBuilder, FaqQuery, Relation, RelationDelta};
use faqs_semiring::{Boolean, Count};
use std::collections::{HashSet, VecDeque};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a run: streams drawn
    /// from the same seed stay independent of each other.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        for i in (1..p.len()).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// Zipf(`s`) over `0..n`: cumulative weights plus binary search, with
/// the popularity ranks scattered over the key space by a seeded
/// permutation so that the hot keys differ from seed to seed.
#[derive(Clone, Debug)]
pub struct Zipf {
    cum: Vec<f64>,
    keys: Vec<u32>,
}

impl Zipf {
    /// The law `P(rank k) ∝ k^-s` over `n` keys.
    pub fn new(n: u32, s: f64, rng: &mut Rng) -> Self {
        let mut total = 0.0;
        let cum = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        Zipf {
            cum,
            keys: rng.permutation(n),
        }
    }

    /// The key of popularity rank `rank` (0 is the most popular).
    pub fn by_rank(&self, rank: usize) -> u32 {
        self.keys[rank]
    }

    /// One key.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let total = *self.cum.last().expect("non-empty domain");
        let x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let rank = self
            .cum
            .partition_point(|&c| c <= x)
            .min(self.cum.len() - 1);
        self.keys[rank]
    }

    /// `len` keys in random order in which each key occurs exactly its
    /// expected number of times (rounded down; the most popular keys
    /// take the remainder). Unlike `len` samples, the multiplicities —
    /// and so the hubs' degrees — are the same for every seed.
    pub fn exact(&self, len: usize, rng: &mut Rng) -> Vec<u32> {
        let total = *self.cum.last().expect("non-empty domain");
        let mut prev = 0.0;
        let mut out: Vec<u32> = Vec::with_capacity(len);
        for (&c, &key) in self.cum.iter().zip(&self.keys) {
            let n = ((c - prev) / total * len as f64) as usize;
            out.extend(std::iter::repeat_n(key, n));
            prev = c;
        }
        let mut rank = 0;
        while out.len() < len {
            out.push(self.keys[rank % self.keys.len()]);
            rank += 1;
        }
        for i in (1..out.len()).rev() {
            out.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out
    }
}

/// Sizes of the three workloads' inputs. `smoke` shrinks every one of
/// them so a whole workload finishes in well under a second.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// serve-zipf-rw: distinct center values (the binding domain).
    pub serve_domain: u32,
    /// serve-zipf-rw: rows of the heavy factor.
    pub serve_heavy_rows: usize,
    /// triangle-churn: edges of the largest factor (the others halve).
    pub triangle_rows: usize,
    /// triangle-churn: vertices.
    pub triangle_domain: u32,
    /// dist-star-tcp: the star's domain `n`.
    pub star_n: u32,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        serve_domain: 4096,
        serve_heavy_rows: 16384,
        triangle_rows: 32768,
        triangle_domain: 4096,
        star_n: 512,
    };

    /// Tiny inputs for the smoke test.
    pub const SMOKE: Sizes = Sizes {
        serve_domain: 64,
        serve_heavy_rows: 256,
        triangle_rows: 256,
        triangle_domain: 64,
        star_n: 32,
    };
}

/// Zipf exponent of the served bindings and of the heavy factor's
/// center column (popular keys also own the most rows).
pub const SERVE_ZIPF_S: f64 = 1.1;

/// Zipf exponent of the triangle's vertex degrees.
pub const TRIANGLE_ZIPF_S: f64 = 1.0;

/// Insert batches a churn stream keeps alive before each new batch
/// also deletes the oldest live one, so factor sizes stay stationary.
pub const CHURN_WINDOW: usize = 64;

/// One factor's churn: inserts only ever add tuples absent from the
/// factor, so deleting them later (`Set(0)`) takes out exactly what was
/// inserted and never a tuple of the generated instance.
#[derive(Clone, Debug)]
struct Churn {
    /// Tuples the factor holds: the instance's plus the live inserts.
    present: HashSet<Vec<u32>>,
    /// Live insert batches, oldest first.
    live: VecDeque<Vec<Vec<u32>>>,
}

impl Churn {
    fn of(factor: &Relation<Count>) -> Self {
        Churn {
            present: factor.iter().map(|(t, _)| t.to_vec()).collect(),
            live: VecDeque::new(),
        }
    }

    /// Records into `delta` `rows` inserts of tuples drawn by `draw`
    /// (redrawn while already present), each valued `1..=max_value`,
    /// and deletes of the batch inserted [`CHURN_WINDOW`] batches
    /// earlier.
    fn batch(
        &mut self,
        delta: &mut RelationDelta<Count>,
        rows: usize,
        rng: &mut Rng,
        draw: impl Fn(&mut Rng) -> Vec<u32>,
        max_value: u64,
    ) {
        let mut inserted = Vec::with_capacity(rows);
        for _ in 0..rows {
            let t = std::iter::repeat_with(|| draw(rng))
                .find(|t| !self.present.contains(t))
                .expect("an endless stream of draws");
            self.present.insert(t.clone());
            delta.insert(t.clone(), Count(1 + rng.below(max_value)));
            inserted.push(t);
        }
        self.live.push_back(inserted);
        if self.live.len() > CHURN_WINDOW {
            for t in self.live.pop_front().expect("window is full") {
                self.present.remove(&t);
                delta.delete(t);
            }
        }
    }
}

/// The popularity law of the served center values: read bindings and
/// the heavy factor's centers both follow it.
pub fn serve_keys(sizes: &Sizes, seed: u64) -> Zipf {
    Zipf::new(sizes.serve_domain, SERVE_ZIPF_S, &mut Rng::new(seed, 0))
}

/// The served template: `star_query(3)` over `Count` with the center
/// `Var(0)` free. Factor 0 is heavy: each center value holds its exact
/// Zipf share of its rows (so a key of a given popularity rank costs
/// the same to read for every seed), with uniform leaves. Factors 1
/// and 2 are thin (one row per center value).
pub fn serve_template(sizes: &Sizes, seed: u64) -> FaqQuery<Count> {
    let d = sizes.serve_domain;
    let mut rng = Rng::new(seed, 1);
    let centers = serve_keys(sizes, seed).exact(sizes.serve_heavy_rows, &mut rng);
    let heavy = Relation::from_pairs(
        vec![Var(0), Var(1)],
        centers.into_iter().map(|c| {
            let leaf = rng.below(d as u64) as u32;
            (vec![c, leaf], Count(1 + rng.below(3)))
        }),
    );
    let thin = |v: u32, rng: &mut Rng| {
        Relation::from_pairs(
            vec![Var(0), Var(v)],
            (0..d).map(|c| (vec![c, rng.below(d as u64) as u32], Count(1 + rng.below(3)))),
        )
    };
    let t1 = thin(2, &mut rng);
    let t2 = thin(3, &mut rng);
    FaqQuery::new_ss(star_query(3), vec![heavy, t1, t2], vec![Var(0)], d)
}

/// One served operation.
#[derive(Clone, Debug)]
pub enum ServeOp {
    /// A point read of the center binding.
    Read(u32),
    /// A small delta batch to one factor.
    Write(EdgeId, RelationDelta<Count>),
}

/// The served operation stream: Zipf reads, and with probability
/// [`ServeOps::WRITE_SHARE`] a write that alternates between the heavy
/// factor (four-row batches) and thin factor 1 (one-row batches). Every
/// write inserts only new tuples and deletes those its factor took
/// [`CHURN_WINDOW`] of its writes earlier, so the template's size stays
/// stationary however long the run.
pub struct ServeOps {
    rng: Rng,
    keys: Zipf,
    domain: u32,
    writes: u64,
    churn: [Churn; 2],
}

impl ServeOps {
    /// Share of operations that are writes.
    pub const WRITE_SHARE: f64 = 0.1;

    /// The stream for `seed` over `template`, which is
    /// `serve_template(sizes, seed)`.
    pub fn new(template: &FaqQuery<Count>, sizes: &Sizes, seed: u64) -> Self {
        ServeOps {
            rng: Rng::new(seed, 2),
            keys: serve_keys(sizes, seed),
            domain: sizes.serve_domain,
            writes: 0,
            churn: [
                Churn::of(&template.factors[0]),
                Churn::of(&template.factors[1]),
            ],
        }
    }

    /// A read binding drawn from the stream's Zipf law (for replays).
    pub fn binding(&mut self) -> u32 {
        self.keys.sample(&mut self.rng)
    }

    /// The next operation.
    pub fn next_op(&mut self) -> ServeOp {
        if !self.rng.chance(Self::WRITE_SHARE) {
            return ServeOp::Read(self.binding());
        }
        self.writes += 1;
        let (slot, edge, rows) = if self.writes.is_multiple_of(2) {
            (0, EdgeId(0), 4)
        } else {
            (1, EdgeId(1), 1)
        };
        let schema = if slot == 0 {
            vec![Var(0), Var(1)]
        } else {
            vec![Var(0), Var(2)]
        };
        let mut delta = RelationDelta::new(schema);
        let (keys, d) = (&self.keys, self.domain as u64);
        let draw = |rng: &mut Rng| {
            let c = if slot == 0 {
                keys.sample(rng)
            } else {
                rng.below(d) as u32
            };
            vec![c, rng.below(d) as u32]
        };
        self.churn[slot].batch(&mut delta, rows, &mut self.rng, draw, 3);
        ServeOp::Write(edge, delta)
    }
}

/// A triangle (`cycle_query(3)`) `Count` instance whose vertex degrees
/// follow Zipf([`TRIANGLE_ZIPF_S`]): in every factor each endpoint
/// column lists each vertex exactly its Zipf share of times, randomly
/// paired, so the same few hub vertices carry most edges in all three
/// factors and their degrees do not change from seed to seed. Factor
/// `e` lists `triangle_rows >> e` edges: with three equally sized
/// factors the planner's candidates tie and its choice flips from seed
/// to seed, while the skewed sizes give every seed the same plan.
pub fn triangle_instance(sizes: &Sizes, seed: u64) -> (FaqQuery<Count>, TriangleDeltas) {
    let mut rng = Rng::new(seed, 3);
    let vertices = Zipf::new(sizes.triangle_domain, TRIANGLE_ZIPF_S, &mut rng);
    let h = cycle_query(3);
    let factors = h
        .edges()
        .map(|(e, vars)| {
            let rows = sizes.triangle_rows >> e.index();
            let left = vertices.exact(rows, &mut rng);
            let right = vertices.exact(rows, &mut rng);
            Relation::from_pairs(
                vars.to_vec(),
                left.into_iter()
                    .zip(right)
                    .map(|(a, b)| (vec![a, b], Count(1))),
            )
        })
        .collect();
    let q = FaqQuery::new_ss(h, factors, vec![], sizes.triangle_domain);
    let deltas = TriangleDeltas {
        rng: Rng::new(seed, 4),
        vertices,
        schemas: q.factors.iter().map(|f| f.schema().to_vec()).collect(),
        churn: q.factors.iter().map(Churn::of).collect(),
        batches: 0,
    };
    (q, deltas)
}

/// The triangle's churn stream: batches of one to four inserts of new
/// edges on one factor, each batch also deleting that factor's edges
/// inserted [`CHURN_WINDOW`] batches earlier. The factors take turns: an update's
/// cost depends mostly on which factor it hits, so a random choice
/// would let the update median jump between the factors' costs.
pub struct TriangleDeltas {
    rng: Rng,
    vertices: Zipf,
    schemas: Vec<Vec<Var>>,
    churn: Vec<Churn>,
    batches: usize,
}

impl TriangleDeltas {
    /// The next delta batch and the factor it targets.
    pub fn next_batch(&mut self) -> (EdgeId, RelationDelta<Count>) {
        let e = self.batches % self.schemas.len();
        self.batches += 1;
        let mut delta = RelationDelta::new(self.schemas[e].clone());
        let rows = 1 + self.rng.below(4) as usize;
        let vertices = &self.vertices;
        let draw = |rng: &mut Rng| vec![vertices.sample(rng), vertices.sample(rng)];
        self.churn[e].batch(&mut delta, rows, &mut self.rng, draw, 1);
        (EdgeId(e as u32), delta)
    }
}

/// `irreducible_star_instance(4, n)` with its center values relabelled
/// by a seeded permutation of `0..n`. Every relation still lists all
/// `n` center values, so the hash-split shard sizes — and with them the
/// run's rounds, model bits and wire bytes — are the same for every
/// seed; only which tuples travel together changes.
pub fn star_instance(sizes: &Sizes, seed: u64) -> FaqQuery<Boolean> {
    let n = sizes.star_n;
    let mut rng = Rng::new(seed, 5);
    let relabel = rng.permutation(n);
    let h = star_query(4);
    let mut b = BcqBuilder::new(&h, n as usize);
    for e in 0..4 {
        b.relation_from_pairs(e, (0..n).map(|x| (relabel[x as usize], x % 5)));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_relation::DeltaOp;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let s = Sizes::SMOKE;
        let serve = |seed| serve_template(&s, seed).factors;
        assert_eq!(serve(7), serve(7));
        assert_ne!(serve(7), serve(8));
        let ops = |seed| {
            let mut st = ServeOps::new(&serve_template(&s, seed), &s, seed);
            (0..200)
                .map(|_| format!("{:?}", st.next_op()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(ops(3), ops(4));
        let triangle = |seed| triangle_instance(&s, seed).0.factors;
        assert_eq!(triangle(5), triangle(5));
        assert_ne!(triangle(5), triangle(6));
        let star = |seed| star_instance(&s, seed).factors;
        assert_eq!(star(1), star(1));
        assert_ne!(star(1), star(2));
    }

    /// The factor's tuples with their annotations.
    fn tuples(r: &Relation<Count>) -> Vec<(Vec<u32>, Count)> {
        r.iter().map(|(t, v)| (t.to_vec(), *v)).collect()
    }

    /// Applies `batches` to `factors` and checks after each that every
    /// generated tuple keeps its annotation and that the factors hold
    /// exactly the generated tuples plus the live window's inserts.
    fn assert_stationary(
        base: &[Relation<Count>],
        batches: impl Iterator<Item = (EdgeId, RelationDelta<Count>)>,
    ) {
        let mut factors = base.to_vec();
        let mut live: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); base.len()];
        let mut touched = vec![false; base.len()];
        for (edge, delta) in batches {
            let e = edge.index();
            touched[e] = true;
            factors[e].apply_delta(&delta);
            let inserts = delta.ops().filter(|(_, op)| matches!(op, DeltaOp::Add(_)));
            let added = inserts.fold((0, 0), |(n, total), (_, op)| match op {
                DeltaOp::Add(Count(v)) => (n + 1, total + v),
                DeltaOp::Set(_) => (n, total),
            });
            live[e].push_back(added);
            if live[e].len() > CHURN_WINDOW {
                live[e].pop_front();
            }
            let (n, total) = live[e].iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            let sum = |r: &Relation<Count>| r.iter().map(|(_, v)| v.0).sum::<u64>();
            assert_eq!(factors[e].len(), base[e].len() + n);
            assert_eq!(sum(&factors[e]), sum(&base[e]) + total);
            for (t, v) in tuples(&base[e]) {
                assert_eq!(
                    factors[e].get(&t),
                    Some(&v),
                    "generated tuple {t:?} changed"
                );
            }
        }
        assert!(touched.iter().filter(|&&t| t).count() >= 2);
    }

    #[test]
    fn churn_never_touches_the_generated_tuples() {
        let s = Sizes::SMOKE;
        let (q, mut deltas) = triangle_instance(&s, 9);
        assert_stationary(
            &q.factors,
            (0..6 * CHURN_WINDOW).map(|_| deltas.next_batch()),
        );
        let template = serve_template(&s, 9);
        let mut ops = ServeOps::new(&template, &s, 9);
        let writes = std::iter::from_fn(|| loop {
            if let ServeOp::Write(e, d) = ops.next_op() {
                return Some((e, d));
            }
        });
        assert_stationary(&template.factors, writes.take(4 * CHURN_WINDOW));
    }

    #[test]
    fn exact_keeps_zipf_multiplicities_for_every_seed() {
        let count = |seed| {
            let z = Zipf::new(50, 1.0, &mut Rng::new(0, 0));
            let mut keys = z.exact(1000, &mut Rng::new(seed, 1));
            assert_eq!(keys.len(), 1000);
            keys.sort_unstable();
            keys
        };
        assert_eq!(count(1), count(2), "same multiset, different order");
    }
}
