//! Parameterised orderings (Lemma 3.1) and canonical codes (Theorems 3.2/3.4).
//!
//! Lemma 3.1 shows that once an orientation, a vertex and an adjacent proper
//! edge are fixed, a total order on the vertices, edges and faces of a
//! connected component of the invariant is definable in fixpoint logic. The
//! canonical form of the whole invariant is then obtained, as in the proof of
//! Theorem 3.4, by recursing over the connected-component tree: every subtree
//! is serialised relative to each parameter choice, children embedded in the
//! same face are combined as a sorted multiset (this is where counting is
//! needed in the logic), and the lexicographically least serialisation is
//! kept.
//!
//! Two invariants have equal canonical codes iff they are isomorphic, which by
//! Theorem 2.1(ii) means the underlying spatial instances are topologically
//! equivalent. The test suites cross-validate this equivalence against the
//! generic backtracking isomorphism of `topo-relational`.
//!
//! # Implementation notes (the PR 3 overhaul, made lazy in PR 4)
//!
//! Codes are compact `u32` token streams (see [`CanonicalCode`]), not strings:
//! comparison is a machine-word `memcmp` and serialising a cell never
//! allocates or formats. The Lemma 3.1 parameter sweep over the
//! `(orientation, vertex, edge)` choices of a component is pruned in three
//! ways:
//!
//! * **Lazy candidate serialisation.** A candidate's Lemma 3.1 traversal and
//!   its serialisation are one interleaved pass (`stream_candidate`): every
//!   cell emits its tokens the moment the traversal first reaches it, and the
//!   first token that compares greater than the best-so-far code aborts the
//!   candidate *including the rest of its traversal*. A losing start choice
//!   therefore costs only the shared prefix of its stream, not an `O(cells)`
//!   ordering build — the fix for the giant-component blowup where each of
//!   thousands of surviving choices paid a full traversal before its first
//!   token could be compared.
//! * **Refined start filter.** Start vertices are filtered by an iterated
//!   1-neighbourhood colour refinement (region signature + degree, then
//!   repeatedly extended with the sorted multiset of incident edge/endpoint
//!   colours — computed once per canonicalisation in `Indexes`). Only
//!   choices in the minimal colour class of their component, further filtered
//!   to the minimal `(edge colour, far-endpoint colour)` key, are swept. The
//!   restriction is isomorphism-invariant, so the minimum over the surviving
//!   choices is still a complete invariant (equal codes iff isomorphic) even
//!   though it is no longer the minimum over *all* choices.
//! * **Memoised subtrees.** Each component's minimal code is computed once
//!   per orientation, bottom-up over the component tree, and the children
//!   embedded in a face are pre-joined into one per-face blob, so a parent's
//!   candidate sweep never re-serialises a subtree.
//!
//! The streamed format is a first-encounter encoding: a component with proper
//! edges serialises as its DFS vertex stream, where each vertex emits its
//! region signature and its rotation (cone) anchored at the associated edge of
//! Lemma 3.1, and every edge and owned face is assigned its rank — and emits
//! its own region signature (plus, for faces, the embedded-children blob) —
//! at its first appearance in that stream. The stream determines the component
//! up to isomorphism relative to the parameter choice, every token depends
//! only on the traversal prefix emitted so far, and all candidate streams of
//! one component have the same length. Degenerate components (Lemma 3.1's
//! special cases: isolated vertices, vertex-free closed curves, loop-only
//! vertices) keep the PR 3 rank-based block format; the two formats cannot
//! collide because streamed codes begin with the dedicated `CTRL_STREAM`
//! token.
//!
//! The pre-overhaul String implementation is frozen verbatim in the `naive`
//! submodule (compiled for tests and under the `naive-reference` feature);
//! the equivalence suites prove both code paths induce the same partition
//! into isomorphism classes. The same submodule freezes the start filter's
//! original colour refinement, which the live one must match colour for
//! colour.

use crate::invariant::{CellKind, ComponentId, ConeItem, TopologicalInvariant};
use std::collections::HashMap;

/// A reference to a cell of the invariant.
pub type CellRef = (CellKind, usize);

/// The orientation parameter of Lemma 3.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// Read rotations counterclockwise (as stored).
    CounterClockwise,
    /// Read rotations clockwise.
    Clockwise,
}

// ---------------------------------------------------------------------------
// Canonical code: a typed, cheaply comparable handle.
// ---------------------------------------------------------------------------

/// A canonical code: equal codes iff isomorphic invariants.
///
/// The code is a compact token stream (one `u32` per region membership, cell
/// incidence or structural delimiter) plus the schema's region names; `Eq`,
/// `Ord` and `Hash` are cheap derived comparisons over those. Use
/// [`CanonicalCode::code_hash`] for hash-map keying when the full code is too
/// wide a key.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalCode {
    schema: Vec<String>,
    tokens: Vec<u32>,
}

impl CanonicalCode {
    /// The raw token stream.
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The schema's region names, in schema order (part of code equality).
    pub fn schema_names(&self) -> &[String] {
        &self.schema
    }

    /// Number of tokens in the code.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True iff the code has no tokens (never the case for a real invariant:
    /// even an empty instance serialises its exterior face).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// A 64-bit FNV-1a digest of the code, for hash-map keying. Equal codes
    /// have equal hashes; unequal codes collide only with ordinary hash
    /// probability, so a hash match must be confirmed by comparing the codes
    /// when exactness matters.
    pub fn code_hash(&self) -> CodeHash {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        for name in &self.schema {
            for byte in name.bytes() {
                h = (h ^ byte as u64).wrapping_mul(PRIME);
            }
            h = (h ^ 0xff).wrapping_mul(PRIME);
        }
        for &t in &self.tokens {
            h = (h ^ t as u64).wrapping_mul(PRIME);
        }
        CodeHash(h)
    }
}

/// A 64-bit digest of a [`CanonicalCode`], suitable as a hash-map key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CodeHash(u64);

impl CodeHash {
    /// The raw digest value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a digest from its raw value, for persistence layers that
    /// stored [`as_u64`](Self::as_u64) (e.g. `topo-store`'s snapshot/WAL
    /// format, which keeps the hash alongside each class so recovery never
    /// has to recanonicalise). The value carries no proof of matching any
    /// code; exact users must still confirm by comparing codes.
    pub fn from_u64(raw: u64) -> Self {
        CodeHash(raw)
    }
}

/// The canonical form of an invariant: the canonical code together with the
/// total cell order that realises it (the canonical ordering of Theorem 3.4 —
/// isomorphic invariants produce cell orders related by the isomorphism).
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// The canonical code.
    pub code: CanonicalCode,
    /// A total order of all cells realising the code: each component's cells
    /// in the winning candidate's emission order (first-encounter order of
    /// the streamed Lemma 3.1 traversal for components with proper edges,
    /// vertices-then-edges-then-faces for the degenerate components), the
    /// children embedded in a face following the face in sorted-code order,
    /// the exterior face last.
    pub order: Vec<CellRef>,
}

// ---------------------------------------------------------------------------
// Token alphabet.
// ---------------------------------------------------------------------------

// Control tokens (tag 0) sort below every data token; the values are chosen
// so a shorter region/rank list compares below a longer extension of it.
const CTRL_END: u32 = 0; // end-of-list separator
const CTRL_VERTEX: u32 = 1; // vertex block opener
const CTRL_EDGE: u32 = 2; // edge block opener
const CTRL_FACE: u32 = 3; // face block opener
const CTRL_CLOSE: u32 = 4; // block closer
const CTRL_PARENT: u32 = 5; // the component's parent face
const CTRL_FOREIGN: u32 = 6; // defensive: a face owned by neither (unreachable)
const CTRL_CLOSED: u32 = 7; // a vertex-free closed curve (no endpoints)
const CTRL_CHILDREN_OPEN: u32 = 8; // embedded-children multiset opener
const CTRL_CHILD_SEP: u32 = 9; // embedded-children separator
const CTRL_CHILDREN_CLOSE: u32 = 10; // embedded-children multiset closer
const CTRL_EXTERIOR: u32 = 11; // whole-invariant wrapper
const CTRL_STREAM: u32 = 12; // first-encounter stream opener (proper components)

const TAG_REGION: u32 = 1 << 28; // + region id
const TAG_EDGE_RANK: u32 = 2 << 28; // + edge rank within the ordering
const TAG_FACE_RANK: u32 = 3 << 28; // + owned-face rank within the ordering
const TAG_VERTEX_RANK: u32 = 4 << 28; // + vertex rank within the ordering

const NO_RANK: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

/// The canonical code of an invariant.
///
/// Prefer [`TopologicalInvariant::canonical_code`], which computes the code
/// once and caches it on the invariant; this free function always recomputes.
pub fn canonical_code(invariant: &TopologicalInvariant) -> CanonicalCode {
    canonical_form(invariant).code
}

/// The canonical form (code + realising cell order) of an invariant: the
/// lexicographically smaller of the two orientation sweeps.
pub fn canonical_form(invariant: &TopologicalInvariant) -> CanonicalForm {
    let indexes = Indexes::build(invariant);
    let ccw = global_form(invariant, &indexes, Orientation::CounterClockwise);
    let cw = global_form(invariant, &indexes, Orientation::Clockwise);
    let (tokens, order) = if ccw.0 <= cw.0 { ccw } else { cw };
    let schema = invariant.schema().iter().map(|(_, name)| name.to_string()).collect();
    CanonicalForm { code: CanonicalCode { schema, tokens }, order }
}

/// Pruning statistics of the Lemma 3.1 start-choice sweep on the invariant's
/// largest skeleton component — the observable behind the giant-component
/// metrics recorded by the bench runner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of skeleton components.
    pub components: usize,
    /// Skeleton cells (vertices + edges) of the largest component.
    pub giant_skeleton_cells: usize,
    /// All Lemma 3.1 `(vertex, proper edge)` choices of that component
    /// (per orientation).
    pub giant_choices: usize,
    /// Choices surviving the refined start filter (per orientation); each
    /// survivor streams until its first losing token.
    pub giant_surviving_choices: usize,
}

/// Computes [`SweepStats`] for an invariant (zeroes on an empty skeleton).
pub fn sweep_stats(invariant: &TopologicalInvariant) -> SweepStats {
    let components = invariant.components().len();
    let Some(giant) = (0..components).max_by_key(|&c| {
        let comp = &invariant.components()[c];
        comp.vertices.len() + comp.edges.len()
    }) else {
        return SweepStats {
            components: 0,
            giant_skeleton_cells: 0,
            giant_choices: 0,
            giant_surviving_choices: 0,
        };
    };
    let comp = &invariant.components()[giant];
    let is_proper = |e: usize| matches!(invariant.edge_endpoints(e), Some((a, b)) if a != b);
    let choices: usize = comp
        .vertices
        .iter()
        .map(|&v| invariant.vertex_slots(v).iter().filter(|&&(e, _)| is_proper(e)).count())
        .sum();
    let surviving = if comp.edges.iter().any(|&e| is_proper(e)) {
        let idx = Indexes::build(invariant);
        admissible_choices(invariant, &idx, giant).len()
    } else {
        // Degenerate components enumerate their handful of reference
        // orderings; report that count instead.
        component_orderings(invariant, giant, Orientation::CounterClockwise).len()
    };
    SweepStats {
        components,
        giant_skeleton_cells: comp.vertices.len() + comp.edges.len(),
        giant_choices: choices,
        giant_surviving_choices: surviving,
    }
}

// ---------------------------------------------------------------------------
// Precomputed incidence indexes (built once per canonicalisation).
// ---------------------------------------------------------------------------

struct Indexes {
    /// face → incident edges (the paper's Face–Edge relation, inverted once
    /// instead of scanning all edges per face per candidate).
    face_edges: Vec<Vec<usize>>,
    /// Components sorted by tree depth, deepest first.
    by_depth: Vec<ComponentId>,
    /// Per-cell region-membership token runs (region tokens + `CTRL_END`).
    vertex_region_toks: Vec<Vec<u32>>,
    edge_region_toks: Vec<Vec<u32>>,
    face_region_toks: Vec<Vec<u32>>,
    /// Refined start-filter colours (see [`refine_colours`]): dense ranks of
    /// isomorphism-invariant vertex/edge keys, so comparing two colours of
    /// cells in one invariant compares their intrinsic refinement keys.
    vertex_colour: Vec<u32>,
    edge_colour: Vec<u32>,
}

/// Number of 1-neighbourhood refinement rounds. Full stabilisation can take
/// `O(diameter)` rounds on path-like components; a fixed, deterministic cap
/// bounds the refinement at `rounds ×` one round's cost, and any
/// deterministic cap preserves isomorphism-invariance of the resulting
/// colours. A round costs `O(Σ degree × log degree)` to build the keys of
/// the vertices in non-singleton classes plus a sort within each such class
/// (see [`refine_colours`]). The cap is reached in practice: on `ign_city`
/// at grid 16 the colouring is still splitting after the last round.
const REFINEMENT_ROUNDS: usize = 12;

/// Assigns dense ranks (0-based, by ascending key order) to a list of keys.
/// Equal keys receive equal ranks. Returns the ranks and the number of
/// distinct classes.
fn dense_ranks<K: Ord>(keys: &[K]) -> (Vec<u32>, usize) {
    let mut by_key: Vec<usize> = (0..keys.len()).collect();
    by_key.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
    let mut ranks = vec![0u32; keys.len()];
    let mut rank = 0u32;
    for (i, &v) in by_key.iter().enumerate() {
        if i > 0 && keys[v] != keys[by_key[i - 1]] {
            rank += 1;
        }
        ranks[v] = rank;
    }
    let classes = if keys.is_empty() { 0 } else { rank as usize + 1 };
    (ranks, classes)
}

/// The edge colours of the start filter: dense ranks of each edge's region
/// signature plus its shape (closed curve / loop / proper).
fn edge_colours(inv: &TopologicalInvariant, edge_region_toks: &[Vec<u32>]) -> Vec<u32> {
    let edge_keys: Vec<(&[u32], u8)> = (0..inv.edge_count())
        .map(|e| {
            let shape = match inv.edge_endpoints(e) {
                None => 0u8,                 // vertex-free closed curve
                Some((a, b)) if a == b => 1, // loop
                Some(_) => 2,                // proper edge
            };
            (edge_region_toks[e].as_slice(), shape)
        })
        .collect();
    dense_ranks(&edge_keys).0
}

/// Iterated 1-neighbourhood colour refinement over the vertices (and a static
/// colouring of the edges), the start-choice filter of the lazy sweep.
///
/// Edge colour: see [`edge_colours`]. Vertex colour: dense rank of the region
/// signature and degree, refined for up to [`REFINEMENT_ROUNDS`] rounds by the
/// sorted multiset of `(edge colour, far-endpoint colour)` pairs over the
/// incident slots — the classical colour-refinement step, orientation-free by
/// construction. All keys are intrinsic (region sets, degrees, multisets of
/// previous-round colours), and dense ranking is order-preserving, so the
/// relative order of two colours *within one component* is determined by the
/// component alone: isomorphic components (in the same or different
/// invariants) induce corresponding minimal colour classes.
///
/// A round's key is `(colour, multiset)`, so a round only splits classes and
/// the new ranks keep the class order. The implementation relies on that: a
/// vertex order sorted by colour is kept across rounds, each round sorts only
/// within each class (a singleton class builds no key), and the multisets are
/// packed as `edge colour << 32 | far colour` words — whose order is the
/// order of the pairs — into one flat buffer laid out like the per-vertex
/// `(edge colour, far endpoint)` table, built once. Nothing is allocated per
/// vertex or per round. The colours are exactly those of the frozen
/// `naive::refine_colours_naive`, which the tests compare against.
fn refine_colours(
    inv: &TopologicalInvariant,
    vertex_region_toks: &[Vec<u32>],
    edge_region_toks: &[Vec<u32>],
) -> (Vec<u32>, Vec<u32>) {
    let nv = inv.vertex_count();
    let edge_colour = edge_colours(inv, edge_region_toks);

    // CSR table: vertex `v`'s incident slots as `(edge colour, far endpoint)`
    // in `slots[start[v]..start[v + 1]]`.
    let mut start: Vec<usize> = Vec::with_capacity(nv + 1);
    let mut slots: Vec<(u32, u32)> = Vec::new();
    start.push(0);
    for v in 0..nv {
        for &(e, end) in inv.vertex_slots(v) {
            let far = match inv.edge_endpoints(e) {
                Some((a, b)) => {
                    if end == 0 {
                        b
                    } else {
                        a
                    }
                }
                None => v, // unreachable: slotted edges have endpoints
            };
            slots.push((edge_colour[e], far as u32));
        }
        start.push(slots.len());
    }

    let vertex_keys: Vec<(&[u32], usize)> =
        (0..nv).map(|v| (vertex_region_toks[v].as_slice(), inv.degree(v))).collect();
    let (mut colour, mut classes) = dense_ranks(&vertex_keys);
    let mut order: Vec<u32> = (0..nv as u32).collect();
    order.sort_unstable_by_key(|&v| colour[v as usize]);
    let mut keys: Vec<u64> = vec![0; slots.len()];
    let mut next: Vec<u32> = vec![0; nv];
    for _ in 0..REFINEMENT_ROUNDS {
        if classes == nv {
            break; // discrete colouring: nothing left to split
        }
        let mut rank = 0u32;
        let mut i = 0;
        while i < nv {
            let class_colour = colour[order[i] as usize];
            let mut j = i + 1;
            while j < nv && colour[order[j] as usize] == class_colour {
                j += 1;
            }
            let class = &mut order[i..j];
            if class.len() > 1 {
                for &v in class.iter() {
                    let span = start[v as usize]..start[v as usize + 1];
                    for k in span.clone() {
                        let (edge, far) = slots[k];
                        keys[k] = u64::from(edge) << 32 | u64::from(colour[far as usize]);
                    }
                    keys[span].sort_unstable();
                }
                class.sort_unstable_by(|&a, &b| {
                    keys[start[a as usize]..start[a as usize + 1]]
                        .cmp(&keys[start[b as usize]..start[b as usize + 1]])
                });
            }
            let key = |v: u32| &keys[start[v as usize]..start[v as usize + 1]];
            next[class[0] as usize] = rank;
            for pair in class.windows(2) {
                if key(pair[0]) != key(pair[1]) {
                    rank += 1;
                }
                next[pair[1] as usize] = rank;
            }
            rank += 1;
            i = j;
        }
        if rank as usize == classes {
            break; // partition stable: further rounds cannot split it
        }
        std::mem::swap(&mut colour, &mut next);
        classes = rank as usize;
    }
    (colour, edge_colour)
}

/// The region-membership token run of a cell: its region tokens, then
/// `CTRL_END`.
fn region_tokens(set: &crate::complex::RegionSet) -> Vec<u32> {
    let mut out: Vec<u32> = set.iter().map(|r| TAG_REGION | r as u32).collect();
    out.push(CTRL_END);
    out
}

/// The start filter's `(vertex colour, edge colour)` of an invariant, for
/// the tests that compare `refine_colours` with its frozen oracle.
#[cfg(any(feature = "naive-reference", test))]
pub fn start_filter_colours(inv: &TopologicalInvariant) -> (Vec<u32>, Vec<u32>) {
    let idx = Indexes::build(inv);
    (idx.vertex_colour, idx.edge_colour)
}

impl Indexes {
    fn build(inv: &TopologicalInvariant) -> Self {
        let (nv, ne, nf) = (inv.vertex_count(), inv.edge_count(), inv.face_count());
        let ncomp = inv.components().len();
        let mut face_edges: Vec<Vec<usize>> = vec![Vec::new(); nf];
        for e in 0..ne {
            let (a, b) = inv.edge_faces(e);
            face_edges[a].push(e);
            if b != a {
                face_edges[b].push(e);
            }
        }
        let mut by_depth: Vec<ComponentId> = (0..ncomp).collect();
        by_depth.sort_by_key(|&c| std::cmp::Reverse(inv.components()[c].depth));
        let vertex_region_toks: Vec<Vec<u32>> =
            (0..nv).map(|v| region_tokens(inv.vertex_regions(v))).collect();
        let edge_region_toks: Vec<Vec<u32>> =
            (0..ne).map(|e| region_tokens(inv.edge_regions(e))).collect();
        let (vertex_colour, edge_colour) =
            refine_colours(inv, &vertex_region_toks, &edge_region_toks);
        Indexes {
            face_edges,
            by_depth,
            vertex_region_toks,
            edge_region_toks,
            face_region_toks: (0..nf).map(|f| region_tokens(inv.face_regions(f))).collect(),
            vertex_colour,
            edge_colour,
        }
    }
}

// ---------------------------------------------------------------------------
// Reusable per-candidate scratch state.
// ---------------------------------------------------------------------------

struct Scratch {
    /// Per-kind ranks within the current candidate (`NO_RANK` when the cell
    /// has not been reached). On the streamed path these are the
    /// first-encounter ranks, assigned incrementally as the traversal emits;
    /// on the degenerate path they are the ranks of a pre-built ordering.
    vrank: Vec<u32>,
    erank: Vec<u32>,
    frank: Vec<u32>,
    /// The current candidate's cell order (first-encounter order on the
    /// streamed path). Doubles as the undo log for [`Scratch::reset_ranks`].
    order_buf: Vec<CellRef>,
    /// DFS stack and the degenerate path's cone token buffer.
    stack: Vec<(usize, usize)>,
    cone_buf: Vec<u32>,
    /// Sorted incident-edge ranks of the owned faces, flattened into one
    /// reusable buffer (no per-face allocation per candidate); `face_spans`
    /// holds `(start, len, face)` slices of it, in face-rank order.
    face_rank_buf: Vec<u32>,
    face_spans: Vec<(u32, u32, usize)>,
}

impl Scratch {
    fn new(inv: &TopologicalInvariant) -> Self {
        Scratch {
            vrank: vec![NO_RANK; inv.vertex_count()],
            erank: vec![NO_RANK; inv.edge_count()],
            frank: vec![NO_RANK; inv.face_count()],
            order_buf: Vec::new(),
            stack: Vec::new(),
            cone_buf: Vec::new(),
            face_rank_buf: Vec::new(),
            face_spans: Vec::new(),
        }
    }

    /// Appends one face's sorted incident-edge ranks to the flat buffer and
    /// records its span. Every edge rank of the face's component must already
    /// be assigned.
    fn push_face_key(&mut self, face: usize, idx: &Indexes) {
        let start = self.face_rank_buf.len();
        for &e in &idx.face_edges[face] {
            let r = self.erank[e];
            if r != NO_RANK {
                self.face_rank_buf.push(r);
            }
        }
        self.face_rank_buf[start..].sort_unstable();
        self.face_spans.push((start as u32, (self.face_rank_buf.len() - start) as u32, face));
    }

    /// The sorted incident-edge ranks recorded for the face with the given
    /// face rank.
    fn face_key(&self, frank: u32) -> (&[u32], usize) {
        let (start, len, face) = self.face_spans[frank as usize];
        (&self.face_rank_buf[start as usize..(start + len) as usize], face)
    }

    /// Clears the rank assignments of the current candidate (cheap: only the
    /// cells actually ranked are touched).
    fn reset_ranks(&mut self) {
        for &(kind, id) in &self.order_buf {
            match kind {
                CellKind::Vertex => self.vrank[id] = NO_RANK,
                CellKind::Edge => self.erank[id] = NO_RANK,
                CellKind::Face => self.frank[id] = NO_RANK,
            }
        }
        self.order_buf.clear();
    }

    /// Assigns per-kind ranks from an externally built cell order and fills
    /// the face-key buffers (sorted incident-edge ranks per owned face, in
    /// face-rank order) so the serialiser can reuse them.
    fn rank_order(&mut self, order: &[CellRef], idx: &Indexes) {
        debug_assert!(self.order_buf.is_empty());
        let (mut v, mut e, mut f) = (0u32, 0u32, 0u32);
        for &(kind, id) in order {
            match kind {
                CellKind::Vertex => {
                    self.vrank[id] = v;
                    v += 1;
                }
                CellKind::Edge => {
                    self.erank[id] = e;
                    e += 1;
                }
                CellKind::Face => {
                    self.frank[id] = f;
                    f += 1;
                }
            }
            self.order_buf.push((kind, id));
        }
        // Faces follow all edges in every component ordering, so every edge
        // rank is already assigned here.
        self.face_rank_buf.clear();
        self.face_spans.clear();
        for &(kind, id) in order {
            if kind == CellKind::Face {
                self.push_face_key(id, idx);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Early-abandon minimal-code builder.
// ---------------------------------------------------------------------------

/// Tracks the best (lexicographically least) candidate serialisation seen so
/// far. New candidates are emitted token by token; as soon as a candidate is
/// known to compare greater than the best it is abandoned (every `emit`
/// returns `false`).
struct CodeBuilder {
    best: Vec<u32>,
    best_order: Vec<CellRef>,
    cur: Vec<u32>,
    comparing: bool,
    less: bool,
}

impl CodeBuilder {
    fn new() -> Self {
        CodeBuilder {
            best: Vec::new(),
            best_order: Vec::new(),
            cur: Vec::new(),
            comparing: false,
            less: false,
        }
    }

    fn start_candidate(&mut self) {
        self.cur.clear();
        self.comparing = !self.best.is_empty();
        self.less = false;
    }

    #[inline]
    fn emit(&mut self, tok: u32) -> bool {
        if self.comparing && !self.less {
            match self.best.get(self.cur.len()) {
                // The best code is a proper prefix: it compares smaller.
                None => return false,
                Some(&b) if tok > b => return false,
                Some(&b) if tok < b => self.less = true,
                _ => {}
            }
        }
        self.cur.push(tok);
        true
    }

    fn emit_slice(&mut self, toks: &[u32]) -> bool {
        if self.comparing && !self.less {
            let pos = self.cur.len();
            let avail = self.best.len() - pos;
            if avail < toks.len() {
                // The best code ends inside this run: equal prefix means the
                // best is a proper prefix of the candidate, hence smaller.
                if toks[..avail] >= self.best[pos..] {
                    return false;
                }
                self.less = true;
            } else {
                match toks.cmp(&self.best[pos..pos + toks.len()]) {
                    std::cmp::Ordering::Less => self.less = true,
                    std::cmp::Ordering::Greater => return false,
                    std::cmp::Ordering::Equal => {}
                }
            }
        }
        self.cur.extend_from_slice(toks);
        true
    }

    /// Call after a candidate was fully emitted (not abandoned).
    fn finish_candidate(&mut self, order: &[CellRef]) {
        let wins = !self.comparing || self.less || self.cur.len() < self.best.len();
        if wins {
            std::mem::swap(&mut self.best, &mut self.cur);
            self.best_order.clear();
            self.best_order.extend_from_slice(order);
        }
    }

    fn into_result(self) -> (Vec<u32>, Vec<CellRef>) {
        (self.best, self.best_order)
    }
}

// ---------------------------------------------------------------------------
// Whole-invariant sweep under one orientation.
// ---------------------------------------------------------------------------

/// The minimal serialisation and realising cell order of one component
/// subtree.
struct CompResult {
    tokens: Vec<u32>,
    order: Vec<CellRef>,
}

/// The per-component sweep results of one orientation: every component's
/// minimal subtree code, plus the per-face joined children blobs and the
/// children of each face in sorted-code order.
struct SweepOutput {
    results: Vec<Option<CompResult>>,
    face_child_order: Vec<Vec<ComponentId>>,
}

fn global_form(
    inv: &TopologicalInvariant,
    idx: &Indexes,
    orientation: Orientation,
) -> (Vec<u32>, Vec<CellRef>) {
    let swept = sweep_components(inv, idx, orientation);

    // Top level: the components embedded in the exterior face.
    let exterior = inv.exterior_face();
    let (top_blob, top_order) = join_children(inv.components_in_face(exterior), &swept.results);
    let mut tokens = Vec::with_capacity(top_blob.len() + 1);
    tokens.push(CTRL_EXTERIOR);
    tokens.extend_from_slice(&top_blob);

    let mut order: Vec<CellRef> = Vec::with_capacity(inv.cell_count());
    for &c in &top_order {
        glue_subtree_order(&swept, c, &mut order);
    }
    order.push((CellKind::Face, exterior));
    (tokens, order)
}

/// Runs the bottom-up component sweep of one orientation (the body of
/// `global_form` up to, but not including, the exterior-face join).
fn sweep_components(
    inv: &TopologicalInvariant,
    idx: &Indexes,
    orientation: Orientation,
) -> SweepOutput {
    let ncomp = inv.components().len();
    let nf = inv.face_count();
    let mut scratch = Scratch::new(inv);
    let mut results: Vec<Option<CompResult>> = (0..ncomp).map(|_| None).collect();
    // face → pre-joined children blob and the children in sorted-code order.
    let mut face_blob: Vec<Vec<u32>> = vec![Vec::new(); nf];
    let mut face_child_order: Vec<Vec<ComponentId>> = vec![Vec::new(); nf];

    // `by_depth` is sorted deepest-first, so when `c` is reached every
    // component embedded in one of its owned faces is finished: join those
    // children into one sorted-multiset blob per face, then sweep `c`.
    for &c in &idx.by_depth {
        for &f in inv.owned_faces(c) {
            let (blob, order) = join_children(inv.components_in_face(f), &results);
            face_blob[f] = blob;
            face_child_order[f] = order;
        }
        results[c] = Some(component_code(inv, idx, &mut scratch, c, orientation, &face_blob));
    }
    SweepOutput { results, face_child_order }
}

/// Appends the glued cell order of one component subtree: the component's
/// cells in its winning order, children of a face emitted right after the
/// face in sorted-code order, recursively. An explicit stack of
/// `(component, resume position)` frames keeps the traversal bounded
/// regardless of how deeply the component tree nests.
fn glue_subtree_order(swept: &SweepOutput, root: ComponentId, order: &mut Vec<CellRef>) {
    let mut stack: Vec<(ComponentId, usize)> = vec![(root, 0)];
    while let Some((c, resume_at)) = stack.pop() {
        let result = swept.results[c].as_ref().expect("component code computed");
        let mut i = resume_at;
        while i < result.order.len() {
            let cell = result.order[i];
            order.push(cell);
            i += 1;
            if let (CellKind::Face, f) = cell {
                let children = &swept.face_child_order[f];
                if !children.is_empty() {
                    // Emit the children next, then resume this component.
                    stack.push((c, i));
                    stack.extend(children.iter().rev().map(|&child| (child, 0)));
                    break;
                }
            }
        }
    }
}

/// Joins the finished codes of sibling components into one sorted-multiset
/// blob (`CTRL_CHILD_SEP`-separated) and reports the sorted component order.
fn join_children(
    children: &[ComponentId],
    results: &[Option<CompResult>],
) -> (Vec<u32>, Vec<ComponentId>) {
    let mut sorted: Vec<ComponentId> = children.to_vec();
    sorted.sort_by(|&a, &b| {
        let (ta, tb) = (
            &results[a].as_ref().expect("child code computed").tokens,
            &results[b].as_ref().expect("child code computed").tokens,
        );
        ta.cmp(tb)
    });
    let total: usize =
        sorted.iter().map(|&c| results[c].as_ref().unwrap().tokens.len() + 1).sum::<usize>();
    let mut blob = Vec::with_capacity(total);
    for (i, &c) in sorted.iter().enumerate() {
        if i > 0 {
            blob.push(CTRL_CHILD_SEP);
        }
        blob.extend_from_slice(&results[c].as_ref().unwrap().tokens);
    }
    (blob, sorted)
}

// ---------------------------------------------------------------------------
// Per-component minimal code (the pruned Lemma 3.1 sweep).
// ---------------------------------------------------------------------------

fn component_code(
    inv: &TopologicalInvariant,
    idx: &Indexes,
    scratch: &mut Scratch,
    component: ComponentId,
    orientation: Orientation,
    face_blob: &[Vec<u32>],
) -> CompResult {
    let comp = &inv.components()[component];
    let is_proper = |e: usize| matches!(inv.edge_endpoints(e), Some((a, b)) if a != b);
    let has_proper = comp.edges.iter().any(|&e| is_proper(e));
    let mut builder = CodeBuilder::new();

    if has_proper {
        for (v, e) in admissible_choices(inv, idx, component) {
            builder.start_candidate();
            let completed = stream_candidate(
                inv,
                idx,
                scratch,
                component,
                orientation,
                v,
                e,
                comp.parent_face,
                face_blob,
                &mut builder,
            );
            if completed {
                builder.finish_candidate(&scratch.order_buf);
            }
            scratch.reset_ranks();
        }
    } else {
        // Degenerate components (Lemma 3.1's special cases) have a handful of
        // candidate orderings at most; enumerate them with the reference
        // enumeration and serialise each.
        for ordering in component_orderings(inv, component, orientation) {
            scratch.rank_order(&ordering.order, idx);
            builder.start_candidate();
            let completed = serialize_candidate(
                inv,
                idx,
                scratch,
                comp.parent_face,
                orientation,
                face_blob,
                &mut builder,
            );
            if completed {
                builder.finish_candidate(&scratch.order_buf);
            }
            scratch.reset_ranks();
        }
    }

    let (tokens, order) = builder.into_result();
    debug_assert!(!tokens.is_empty(), "every component has at least one ordering");
    CompResult { tokens, order }
}

/// The start choices of a component with proper edges that survive the
/// refined start filter: `(vertex, proper edge)` pairs whose vertex is in the
/// component's minimal refinement colour class (among vertices with a proper
/// incident edge) and whose edge realises the minimal
/// `(edge colour, far-endpoint colour)` key over that class.
///
/// Both restrictions are isomorphism-invariant and the result is never empty,
/// so the minimum over the surviving choices is itself canonical; it need not
/// (and does not) coincide with the minimum over all Lemma 3.1 choices.
fn admissible_choices(
    inv: &TopologicalInvariant,
    idx: &Indexes,
    component: ComponentId,
) -> Vec<(usize, usize)> {
    let comp = &inv.components()[component];
    let is_proper = |e: usize| matches!(inv.edge_endpoints(e), Some((a, b)) if a != b);
    let min_colour = comp
        .vertices
        .iter()
        .filter(|&&v| inv.vertex_slots(v).iter().any(|&(e, _)| is_proper(e)))
        .map(|&v| idx.vertex_colour[v])
        .min()
        .expect("component with proper edges has a start vertex");
    let mut choices: Vec<(u32, u32, usize, usize)> = Vec::new();
    for &v in &comp.vertices {
        if idx.vertex_colour[v] != min_colour {
            continue;
        }
        for &(e, end) in inv.vertex_slots(v) {
            // A proper edge has distinct endpoints, so it occupies exactly
            // one slot at any vertex and each `(v, e)` choice appears once.
            if !is_proper(e) {
                continue;
            }
            let (a, b) = inv.edge_endpoints(e).unwrap();
            let other = if end == 0 { b } else { a };
            choices.push((idx.edge_colour[e], idx.vertex_colour[other], v, e));
        }
    }
    let min_key = choices.iter().map(|&(ec, oc, _, _)| (ec, oc)).min().expect("choices nonempty");
    choices.retain(|&(ec, oc, _, _)| (ec, oc) == min_key);
    choices.into_iter().map(|(_, _, v, e)| (v, e)).collect()
}

/// Lemma 3.1's traversal for a component with proper edges, fused with the
/// serialisation: tokens stream into the builder as the depth-first traversal
/// grows the first-encounter ordering, and the first losing token aborts the
/// candidate — traversal included. Returns `false` on abort; on success the
/// scratch ranks and `order_buf` hold the candidate's first-encounter cell
/// order (for [`CodeBuilder::finish_candidate`]). The caller must
/// [`Scratch::reset_ranks`] afterwards either way.
#[allow(clippy::too_many_arguments)]
fn stream_candidate(
    inv: &TopologicalInvariant,
    idx: &Indexes,
    scratch: &mut Scratch,
    component: ComponentId,
    orientation: Orientation,
    start_vertex: usize,
    start_edge: usize,
    parent_face: usize,
    face_blob: &[Vec<u32>],
    builder: &mut CodeBuilder,
) -> bool {
    let is_proper = |e: usize| matches!(inv.edge_endpoints(e), Some((a, b)) if a != b);
    debug_assert!(scratch.order_buf.is_empty());
    if !builder.emit(CTRL_STREAM) {
        return false;
    }

    // Depth-first traversal over proper edges, visiting the proper edges
    // around each vertex in rotation order starting from the vertex's
    // associated edge. `vrank` doubles as the visited marker; `erank` and
    // `frank` are first-encounter ranks assigned while emitting.
    let (mut vcount, mut ecount, mut fcount) = (0u32, 0u32, 0u32);
    scratch.stack.clear();
    scratch.stack.push((start_vertex, start_edge));
    while let Some((v, via_edge)) = scratch.stack.pop() {
        if scratch.vrank[v] != NO_RANK {
            continue;
        }
        scratch.vrank[v] = vcount;
        vcount += 1;
        scratch.order_buf.push((CellKind::Vertex, v));
        if !builder.emit(CTRL_VERTEX) || !builder.emit_slice(&idx.vertex_region_toks[v]) {
            return false;
        }
        let slots = inv.vertex_slots(v);
        let sectors = inv.vertex_sector_faces(v);
        let degree = slots.len();
        let start = slots
            .iter()
            .position(|&(e, _)| e == via_edge)
            .expect("associated edge is incident to the vertex");
        let unvisited_from = scratch.stack.len();
        for k in 0..degree {
            let i = rotated_index(start, k, degree, orientation);
            let (e, end) = slots[i];
            // The cone item for the slot: a first encounter assigns the
            // edge's rank and inlines its region signature; later mentions
            // emit the known rank alone.
            if scratch.erank[e] == NO_RANK {
                scratch.erank[e] = ecount;
                ecount += 1;
                scratch.order_buf.push((CellKind::Edge, e));
                if !builder.emit(TAG_EDGE_RANK | scratch.erank[e])
                    || !builder.emit_slice(&idx.edge_region_toks[e])
                {
                    return false;
                }
            } else if !builder.emit(TAG_EDGE_RANK | scratch.erank[e]) {
                return false;
            }
            // The face sector following the slot in the chosen orientation:
            // reading the cone clockwise, slot `i` is followed by the sector
            // that counterclockwise-precedes it.
            let si = match orientation {
                Orientation::CounterClockwise => i,
                Orientation::Clockwise => (i + degree - 1) % degree,
            };
            let f = sectors[si];
            if f == parent_face {
                if !builder.emit(CTRL_PARENT) {
                    return false;
                }
            } else if scratch.frank[f] != NO_RANK {
                if !builder.emit(TAG_FACE_RANK | scratch.frank[f]) {
                    return false;
                }
            } else if inv.face_owner(f) == Some(component) {
                // First encounter of an owned face: assign its rank and
                // inline its region signature and embedded-children blob.
                scratch.frank[f] = fcount;
                fcount += 1;
                scratch.order_buf.push((CellKind::Face, f));
                if !builder.emit(TAG_FACE_RANK | scratch.frank[f])
                    || !builder.emit_slice(&idx.face_region_toks[f])
                    || !builder.emit(CTRL_CHILDREN_OPEN)
                    || !builder.emit_slice(&face_blob[f])
                    || !builder.emit(CTRL_CHILDREN_CLOSE)
                {
                    return false;
                }
            } else {
                // A face owned by neither this component nor its parent
                // cannot occur; defensively encode it opaquely.
                if !builder.emit(CTRL_FOREIGN) {
                    return false;
                }
            }
            // Queue the far endpoint of an unvisited proper edge; loops (the
            // only twice-slotted edges) never lead anywhere new.
            if is_proper(e) {
                let (a, b) = inv.edge_endpoints(e).unwrap();
                let other = if end == 0 { b } else { a };
                if scratch.vrank[other] == NO_RANK {
                    scratch.stack.push((other, e));
                }
            }
        }
        if !builder.emit(CTRL_CLOSE) {
            return false;
        }
        // The paper's recursion inserts each sub-order right after its parent
        // vertex; reversing the freshly pushed children reproduces that.
        scratch.stack[unvisited_from..].reverse();
    }
    true
}

/// Serialises the current candidate ordering (ranks + `order_buf` in
/// `scratch`) into the builder. Returns `false` if the candidate was
/// abandoned as lexicographically greater than the best-so-far.
fn serialize_candidate(
    inv: &TopologicalInvariant,
    idx: &Indexes,
    scratch: &mut Scratch,
    parent_face: usize,
    orientation: Orientation,
    face_blob: &[Vec<u32>],
    builder: &mut CodeBuilder,
) -> bool {
    let face_token = |f: usize, frank: &[u32]| -> u32 {
        if f == parent_face {
            CTRL_PARENT
        } else if frank[f] != NO_RANK {
            TAG_FACE_RANK | frank[f]
        } else {
            // A face bordered by this component but owned by neither it nor
            // its parent cannot occur; defensively encode it opaquely.
            CTRL_FOREIGN
        }
    };
    // `order_buf` is iterated while the cone buffer mutates; take it out.
    let order = std::mem::take(&mut scratch.order_buf);
    let mut completed = true;
    'cells: for &(kind, id) in &order {
        match kind {
            CellKind::Vertex => {
                if !builder.emit(CTRL_VERTEX) || !builder.emit_slice(&idx.vertex_region_toks[id]) {
                    completed = false;
                    break 'cells;
                }
                // The cone, read in the chosen orientation, rotated to the
                // lexicographically least starting position.
                scratch.cone_buf.clear();
                for item in inv.cone(id) {
                    scratch.cone_buf.push(match item {
                        ConeItem::Edge(e) => TAG_EDGE_RANK | scratch.erank[e],
                        ConeItem::Face(f) => face_token(f, &scratch.frank),
                    });
                }
                let n = scratch.cone_buf.len();
                let mut best_start = 0usize;
                for s in 1..n {
                    for k in 0..n {
                        let a = scratch.cone_buf[rotated_index(s, k, n, orientation)];
                        let b = scratch.cone_buf[rotated_index(best_start, k, n, orientation)];
                        if a < b {
                            best_start = s;
                            break;
                        }
                        if a > b {
                            break;
                        }
                    }
                }
                for k in 0..n {
                    let tok = scratch.cone_buf[rotated_index(best_start, k, n, orientation)];
                    if !builder.emit(tok) {
                        completed = false;
                        break 'cells;
                    }
                }
                if !builder.emit(CTRL_CLOSE) {
                    completed = false;
                    break 'cells;
                }
            }
            CellKind::Edge => {
                if !builder.emit(CTRL_EDGE) || !builder.emit_slice(&idx.edge_region_toks[id]) {
                    completed = false;
                    break 'cells;
                }
                let endpoint_ok = match inv.edge_endpoints(id) {
                    None => builder.emit(CTRL_CLOSED),
                    Some((a, b)) => {
                        let (ra, rb) = (scratch.vrank[a], scratch.vrank[b]);
                        let (lo, hi) = (ra.min(rb), ra.max(rb));
                        builder.emit(TAG_VERTEX_RANK | lo) && builder.emit(TAG_VERTEX_RANK | hi)
                    }
                };
                if !endpoint_ok {
                    completed = false;
                    break 'cells;
                }
                let (fa, fb) = inv.edge_faces(id);
                let (ta, tb) = (face_token(fa, &scratch.frank), face_token(fb, &scratch.frank));
                let (lo, hi) = (ta.min(tb), ta.max(tb));
                if !builder.emit(lo) || !builder.emit(hi) || !builder.emit(CTRL_CLOSE) {
                    completed = false;
                    break 'cells;
                }
            }
            CellKind::Face => {
                if !builder.emit(CTRL_FACE) || !builder.emit_slice(&idx.face_region_toks[id]) {
                    completed = false;
                    break 'cells;
                }
                // The sorted incident-edge ranks were the face's sort key and
                // sit in the span buffer in face-rank order; reuse them
                // instead of re-deriving and re-sorting per candidate.
                let (edge_ranks, key_face) = scratch.face_key(scratch.frank[id]);
                debug_assert_eq!(key_face, id, "face spans aligned with face ranks");
                let mut all_emitted = true;
                for &r in edge_ranks {
                    if !builder.emit(TAG_EDGE_RANK | r) {
                        all_emitted = false;
                        break;
                    }
                }
                if !all_emitted {
                    completed = false;
                    break 'cells;
                }
                // Children embedded in this face, as the pre-joined sorted
                // multiset blob (memoised subtree codes — never re-serialised
                // here).
                if !builder.emit(CTRL_END)
                    || !builder.emit(CTRL_CHILDREN_OPEN)
                    || !builder.emit_slice(&face_blob[id])
                    || !builder.emit(CTRL_CHILDREN_CLOSE)
                    || !builder.emit(CTRL_CLOSE)
                {
                    completed = false;
                    break 'cells;
                }
            }
        }
    }
    scratch.order_buf = order;
    completed
}

// ---------------------------------------------------------------------------
// Parameterised orderings (reference enumeration, public API).
// ---------------------------------------------------------------------------

/// One parameterised ordering of a connected component (Lemma 3.1): the
/// parameter choice and the resulting total order on the component's
/// vertices, edges and owned faces.
#[derive(Clone, Debug)]
pub struct ComponentOrdering {
    /// The orientation used.
    pub orientation: Orientation,
    /// The start vertex, if the component has any vertex.
    pub start_vertex: Option<usize>,
    /// The start edge (a proper edge adjacent to the start vertex, or a loop
    /// slot for loop-only components).
    pub start_edge: Option<usize>,
    /// The total order: vertices first (in traversal order), then edges, then
    /// the faces owned by the component.
    pub order: Vec<CellRef>,
}

/// All parameterised orderings of a component under a fixed orientation,
/// exactly one per admissible `(vertex, proper edge)` choice (plus the single
/// trivial choice for the degenerate components of Lemma 3.1's special
/// cases).
pub fn component_orderings(
    invariant: &TopologicalInvariant,
    component: ComponentId,
    orientation: Orientation,
) -> Vec<ComponentOrdering> {
    let comp = &invariant.components()[component];
    let proper_edges: Vec<usize> = comp
        .edges
        .iter()
        .copied()
        .filter(|&e| matches!(invariant.edge_endpoints(e), Some((a, b)) if a != b))
        .collect();

    if !proper_edges.is_empty() {
        let mut out = Vec::new();
        for &v in &comp.vertices {
            for &(e, _) in invariant.vertex_slots(v) {
                if !proper_edges.contains(&e) {
                    continue;
                }
                out.push(build_ordering(invariant, component, orientation, v, e));
            }
        }
        // A vertex adjacent to the same proper edge twice cannot happen (a
        // proper edge has distinct endpoints), but a loop shares its slots, so
        // deduplicate identical (vertex, edge) choices.
        out.dedup_by(|a, b| a.start_vertex == b.start_vertex && a.start_edge == b.start_edge);
        return out;
    }

    // Special cases: no proper edge.
    if comp.edges.is_empty() {
        // An isolated vertex.
        let v = comp.vertices[0];
        return vec![ComponentOrdering {
            orientation,
            start_vertex: Some(v),
            start_edge: None,
            order: vec![(CellKind::Vertex, v)],
        }];
    }
    if comp.vertices.is_empty() {
        // A single vertex-free closed curve.
        let e = comp.edges[0];
        let mut order = vec![(CellKind::Edge, e)];
        order.extend(invariant.owned_faces(component).iter().map(|&f| (CellKind::Face, f)));
        return vec![ComponentOrdering {
            orientation,
            start_vertex: None,
            start_edge: Some(e),
            order,
        }];
    }
    // A single vertex with loops only: one ordering per starting slot.
    let v = comp.vertices[0];
    let slots = invariant.vertex_slots(v);
    let mut out = Vec::new();
    for start in 0..slots.len() {
        let mut edge_order: Vec<usize> = Vec::new();
        for k in 0..slots.len() {
            let idx = rotated_index(start, k, slots.len(), orientation);
            let (e, _) = slots[idx];
            if !edge_order.contains(&e) {
                edge_order.push(e);
            }
        }
        let mut order: Vec<CellRef> = vec![(CellKind::Vertex, v)];
        order.extend(edge_order.iter().map(|&e| (CellKind::Edge, e)));
        let edge_rank: HashMap<usize, usize> =
            edge_order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        order.extend(
            ordered_owned_faces(invariant, component, &edge_rank)
                .into_iter()
                .map(|f| (CellKind::Face, f)),
        );
        out.push(ComponentOrdering {
            orientation,
            start_vertex: Some(v),
            start_edge: Some(slots[start].0),
            order,
        });
    }
    out
}

fn rotated_index(start: usize, offset: usize, len: usize, orientation: Orientation) -> usize {
    match orientation {
        Orientation::CounterClockwise => (start + offset) % len,
        Orientation::Clockwise => (start + len - (offset % len)) % len,
    }
}

/// Lemma 3.1's traversal for a component with proper edges, from the choice
/// `(orientation, start vertex, adjacent proper edge)`.
fn build_ordering(
    invariant: &TopologicalInvariant,
    component: ComponentId,
    orientation: Orientation,
    start_vertex: usize,
    start_edge: usize,
) -> ComponentOrdering {
    let comp = &invariant.components()[component];
    let is_proper = |e: usize| matches!(invariant.edge_endpoints(e), Some((a, b)) if a != b);

    // Depth-first traversal over proper edges, visiting the proper edges
    // around each vertex in rotation order starting from the vertex's
    // associated edge.
    let mut vertex_order: Vec<usize> = Vec::new();
    let mut assoc: HashMap<usize, usize> = HashMap::new();
    let mut visited: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut stack: Vec<(usize, usize)> = vec![(start_vertex, start_edge)];
    // The recursion of the paper inserts each sub-order right after its parent
    // vertex; an explicit stack with children pushed in reverse visit order
    // reproduces the same sequence.
    while let Some((v, via_edge)) = stack.pop() {
        if visited.contains(&v) {
            continue;
        }
        visited.insert(v);
        assoc.insert(v, via_edge);
        vertex_order.push(v);
        let slots = invariant.vertex_slots(v);
        let degree = slots.len();
        let start = slots
            .iter()
            .position(|&(e, _)| e == via_edge)
            .expect("associated edge is incident to the vertex");
        let mut neighbours: Vec<(usize, usize)> = Vec::new();
        let mut seen_edges: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for k in 0..degree {
            let idx = rotated_index(start, k, degree, orientation);
            let (e, end) = slots[idx];
            if !is_proper(e) || !seen_edges.insert(e) {
                continue;
            }
            let (a, b) = invariant.edge_endpoints(e).unwrap();
            let other = if end == 0 { b } else { a };
            if !visited.contains(&other) {
                neighbours.push((other, e));
            }
        }
        for item in neighbours.into_iter().rev() {
            stack.push(item);
        }
    }
    let vertex_rank: HashMap<usize, usize> =
        vertex_order.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    // Edge order: lexicographic on endpoint ranks, ties broken by rotation
    // position around the smaller-ranked endpoint starting from its
    // associated edge.
    let mut edges: Vec<usize> = comp.edges.clone();
    let edge_key = |e: usize| -> (usize, usize, usize) {
        let (a, b) =
            invariant.edge_endpoints(e).expect("component with proper edges has no closed curves");
        let (ra, rb) = (vertex_rank[&a], vertex_rank[&b]);
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        let anchor = if ra <= rb { a } else { b };
        let slots = invariant.vertex_slots(anchor);
        let degree = slots.len();
        let anchor_assoc = assoc[&anchor];
        let start = slots
            .iter()
            .position(|&(edge, _)| edge == anchor_assoc)
            .expect("associated edge incident to anchor");
        let mut position = degree;
        for k in 0..degree {
            let idx = rotated_index(start, k, degree, orientation);
            if slots[idx].0 == e {
                position = k;
                break;
            }
        }
        (lo, hi, position)
    };
    edges.sort_by_key(|&e| edge_key(e));
    let edge_rank: HashMap<usize, usize> = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();

    let mut order: Vec<CellRef> = vertex_order.iter().map(|&v| (CellKind::Vertex, v)).collect();
    order.extend(edges.iter().map(|&e| (CellKind::Edge, e)));
    order.extend(
        ordered_owned_faces(invariant, component, &edge_rank)
            .into_iter()
            .map(|f| (CellKind::Face, f)),
    );
    ComponentOrdering {
        orientation,
        start_vertex: Some(start_vertex),
        start_edge: Some(start_edge),
        order,
    }
}

/// Orders the faces owned by a component by the sorted list of ranks of their
/// incident component edges (no two such faces share that list).
fn ordered_owned_faces(
    invariant: &TopologicalInvariant,
    component: ComponentId,
    edge_rank: &HashMap<usize, usize>,
) -> Vec<usize> {
    let mut faces = invariant.owned_faces(component).to_vec();
    let key = |f: usize| -> Vec<usize> {
        let mut ranks: Vec<usize> = invariant
            .face_edges(f)
            .into_iter()
            .filter_map(|e| edge_rank.get(&e).copied())
            .collect();
        ranks.sort_unstable();
        ranks
    };
    faces.sort_by_key(|&f| key(f));
    faces
}

// ---------------------------------------------------------------------------
// Frozen pre-overhaul reference implementation.
// ---------------------------------------------------------------------------

/// The PR 2-era canonicalisation, frozen verbatim as an in-tree reference:
/// `String` codes, no memoised child blobs, no pruning of the Lemma 3.1
/// sweep. The equivalence suites prove that these codes induce the same
/// partition into isomorphism classes as the token-stream codes; the bench
/// harness measures the speedup between the two paths.
///
/// It also freezes the start filter's colour refinement as it stood before
/// its flat-buffer rewrite ([`naive::refine_colours_naive`]); the tests
/// require the live refinement to return exactly its colours.
#[cfg(any(feature = "naive-reference", test))]
pub mod naive {
    // Frozen PR 2 code: silence style/MSRV lints instead of editing the
    // reference (`is_none_or` postdates the recorded MSRV).
    #![allow(clippy::incompatible_msrv)]

    use super::{
        component_orderings, dense_ranks, region_tokens, rotated_index, CellKind,
        TopologicalInvariant, REFINEMENT_ROUNDS,
    };
    use std::collections::HashMap;

    /// The start filter's colours as computed before the flat-buffer rewrite
    /// of `refine_colours`: the frozen oracle that the live refinement must
    /// match exactly (the codes, and so the persisted `CodeHash`es, depend on
    /// which start choices survive).
    pub fn refine_colours_naive(invariant: &TopologicalInvariant) -> (Vec<u32>, Vec<u32>) {
        let vertex_region_toks: Vec<Vec<u32>> = (0..invariant.vertex_count())
            .map(|v| region_tokens(invariant.vertex_regions(v)))
            .collect();
        let edge_region_toks: Vec<Vec<u32>> =
            (0..invariant.edge_count()).map(|e| region_tokens(invariant.edge_regions(e))).collect();
        refine_colours(invariant, &vertex_region_toks, &edge_region_toks)
    }

    fn refine_colours(
        inv: &TopologicalInvariant,
        vertex_region_toks: &[Vec<u32>],
        edge_region_toks: &[Vec<u32>],
    ) -> (Vec<u32>, Vec<u32>) {
        let (nv, ne) = (inv.vertex_count(), inv.edge_count());
        let edge_keys: Vec<(&[u32], u8)> = (0..ne)
            .map(|e| {
                let shape = match inv.edge_endpoints(e) {
                    None => 0u8,                 // vertex-free closed curve
                    Some((a, b)) if a == b => 1, // loop
                    Some(_) => 2,                // proper edge
                };
                (edge_region_toks[e].as_slice(), shape)
            })
            .collect();
        let (edge_colour, _) = dense_ranks(&edge_keys);

        let vertex_keys: Vec<(&[u32], usize)> =
            (0..nv).map(|v| (vertex_region_toks[v].as_slice(), inv.degree(v))).collect();
        let (mut colour, mut classes) = dense_ranks(&vertex_keys);
        let mut pair_buf: Vec<(u32, u32)> = Vec::new();
        for _ in 0..REFINEMENT_ROUNDS {
            if classes == nv {
                break; // discrete colouring: nothing left to split
            }
            let keys: Vec<(u32, Vec<(u32, u32)>)> = (0..nv)
                .map(|v| {
                    pair_buf.clear();
                    for &(e, end) in inv.vertex_slots(v) {
                        let other = match inv.edge_endpoints(e) {
                            Some((a, b)) => {
                                if end == 0 {
                                    b
                                } else {
                                    a
                                }
                            }
                            None => v, // unreachable: slotted edges have endpoints
                        };
                        pair_buf.push((edge_colour[e], colour[other]));
                    }
                    pair_buf.sort_unstable();
                    (colour[v], pair_buf.clone())
                })
                .collect();
            let (next, next_classes) = dense_ranks(&keys);
            if next_classes == classes {
                break; // partition stable: further rounds cannot split it
            }
            colour = next;
            classes = next_classes;
        }
        (colour, edge_colour)
    }

    /// A reference canonical code: equal codes iff isomorphic invariants.
    pub type NaiveCode = String;

    /// The reference canonical code of an invariant (the frozen PR 2 path).
    pub fn canonical_code_naive(invariant: &TopologicalInvariant) -> NaiveCode {
        let ccw = global_code(invariant, super::Orientation::CounterClockwise);
        let cw = global_code(invariant, super::Orientation::Clockwise);
        let mut code = String::new();
        code.push_str("inv{regions=");
        for (_, name) in invariant.schema().iter() {
            code.push_str(name);
            code.push(',');
        }
        code.push('}');
        code.push_str(if ccw <= cw { &ccw } else { &cw });
        code
    }

    /// The whole-invariant serialisation under a globally fixed orientation.
    fn global_code(invariant: &TopologicalInvariant, orientation: super::Orientation) -> String {
        // Bottom-up over the component tree: deeper components first.
        let component_count = invariant.components().len();
        let mut by_depth: Vec<usize> = (0..component_count).collect();
        by_depth.sort_by_key(|&c| std::cmp::Reverse(invariant.components()[c].depth));
        let mut subtree_codes: Vec<Option<String>> = vec![None; component_count];
        for c in by_depth {
            subtree_codes[c] = Some(component_code(invariant, c, orientation, &subtree_codes));
        }
        let mut top_level: Vec<String> = invariant
            .components_in_face(invariant.exterior_face())
            .iter()
            .map(|&c| subtree_codes[c].clone().expect("subtree code computed"))
            .collect();
        top_level.sort();
        format!("ext[{}]", top_level.join("|"))
    }

    /// The canonical code of the subtree rooted at a component: minimum over
    /// the parameter choices of the serialisation of the component, with
    /// children embedded recursively at their containing face.
    fn component_code(
        invariant: &TopologicalInvariant,
        component: usize,
        orientation: super::Orientation,
        subtree_codes: &[Option<String>],
    ) -> String {
        let orderings = component_orderings(invariant, component, orientation);
        orderings
            .into_iter()
            .map(|ordering| {
                serialize_component(invariant, component, orientation, &ordering, subtree_codes)
            })
            .min()
            .expect("every component has at least one ordering")
    }

    fn serialize_component(
        invariant: &TopologicalInvariant,
        component: usize,
        orientation: super::Orientation,
        ordering: &super::ComponentOrdering,
        subtree_codes: &[Option<String>],
    ) -> String {
        let parent_face = invariant.components()[component].parent_face;
        let rank: HashMap<super::CellRef, usize> =
            ordering.order.iter().enumerate().map(|(i, &cell)| (cell, i)).collect();
        let face_token = |f: usize| -> String {
            if f == parent_face {
                "P".to_string()
            } else if let Some(r) = rank.get(&(CellKind::Face, f)) {
                format!("f{r}")
            } else {
                // A face bordered by this component but owned by neither it
                // nor its parent cannot occur; defensively encode it opaquely.
                format!("x{f}")
            }
        };
        let regions = |set: &crate::complex::RegionSet| -> String {
            let mut s = String::new();
            for r in set.iter() {
                s.push_str(&r.to_string());
                s.push(',');
            }
            s
        };
        let mut out = String::new();
        for &(kind, id) in &ordering.order {
            match kind {
                CellKind::Vertex => {
                    out.push_str("V<");
                    out.push_str(&regions(invariant.vertex_regions(id)));
                    out.push(';');
                    // The cone, read in the chosen orientation, rotated to the
                    // lexicographically least starting position.
                    let cone = invariant.cone(id);
                    let tokens: Vec<String> = cone
                        .iter()
                        .map(|item| match item {
                            super::ConeItem::Edge(e) => {
                                format!("e{}", rank[&(CellKind::Edge, *e)])
                            }
                            super::ConeItem::Face(f) => face_token(*f),
                        })
                        .collect();
                    let n = tokens.len();
                    let mut best: Option<String> = None;
                    for start in 0..n.max(1) {
                        let mut candidate = String::new();
                        for k in 0..n {
                            let idx = rotated_index(start, k, n, orientation);
                            candidate.push_str(&tokens[idx]);
                            candidate.push('.');
                        }
                        if best.as_ref().is_none_or(|b| candidate < *b) {
                            best = Some(candidate);
                        }
                    }
                    out.push_str(&best.unwrap_or_default());
                    out.push('>');
                }
                CellKind::Edge => {
                    out.push_str("E<");
                    out.push_str(&regions(invariant.edge_regions(id)));
                    out.push(';');
                    match invariant.edge_endpoints(id) {
                        None => out.push_str("closed"),
                        Some((a, b)) => {
                            let (ra, rb) =
                                (rank[&(CellKind::Vertex, a)], rank[&(CellKind::Vertex, b)]);
                            let (lo, hi) = (ra.min(rb), ra.max(rb));
                            out.push_str(&format!("v{lo}-v{hi}"));
                        }
                    }
                    out.push(';');
                    let (fa, fb) = invariant.edge_faces(id);
                    let mut sides = [face_token(fa), face_token(fb)];
                    sides.sort();
                    out.push_str(&sides.join("/"));
                    out.push('>');
                }
                CellKind::Face => {
                    out.push_str("F<");
                    out.push_str(&regions(invariant.face_regions(id)));
                    out.push(';');
                    let mut edge_ranks: Vec<usize> = invariant
                        .face_edges(id)
                        .into_iter()
                        .filter_map(|e| rank.get(&(CellKind::Edge, e)).copied())
                        .collect();
                    edge_ranks.sort_unstable();
                    for r in edge_ranks {
                        out.push_str(&format!("e{r},"));
                    }
                    out.push(';');
                    // Children embedded in this face, as a sorted multiset.
                    let mut children: Vec<String> = invariant
                        .components_in_face(id)
                        .iter()
                        .map(|&c| {
                            subtree_codes[c].clone().expect("child subtree code computed first")
                        })
                        .collect();
                    children.sort();
                    out.push('[');
                    out.push_str(&children.join("|"));
                    out.push(']');
                    out.push('>');
                }
            }
        }
        let _ = orientation;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top;
    use topo_geometry::Point;
    use topo_spatial::transform::AffineMap;
    use topo_spatial::{Region, Schema, SpatialInstance};

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }

    fn square_instance() -> SpatialInstance {
        let mut instance = SpatialInstance::new(Schema::from_names(["P"]));
        instance.set_region(0, Region::rectangle(0, 0, 10, 10));
        instance
    }

    #[test]
    fn square_and_transformed_square_have_equal_codes() {
        let instance = square_instance();
        let invariant = top(&instance);
        let code = invariant.canonical_code();
        for map in [
            AffineMap::translation(100, -50),
            AffineMap::rotation90(),
            AffineMap::reflection_x(),
            AffineMap::scaling(topo_geometry::Rational::new(7, 3)),
        ] {
            let other = top(&map.apply_instance(&instance));
            assert_eq!(code, other.canonical_code());
            assert_eq!(invariant.code_hash(), other.code_hash());
        }
    }

    #[test]
    fn square_and_pentagon_are_topologically_equivalent() {
        // Both reduce to: one closed curve, two faces — their invariants are
        // isomorphic even though the raw geometry differs.
        let square = top(&square_instance());
        let mut pentagon_instance = SpatialInstance::new(Schema::from_names(["P"]));
        pentagon_instance
            .set_region(0, Region::polygon(vec![p(0, 0), p(10, 0), p(14, 8), p(5, 14), p(-4, 8)]));
        let pentagon = top(&pentagon_instance);
        assert_eq!(square.canonical_code(), pentagon.canonical_code());
        assert!(square.is_isomorphic_to(&pentagon));
    }

    #[test]
    fn different_topologies_have_different_codes() {
        let square = top(&square_instance());
        // An annulus is not homeomorphic to a disk.
        let mut annulus_region = Region::rectangle(0, 0, 30, 30);
        annulus_region.add_ring(vec![p(10, 10), p(20, 10), p(20, 20), p(10, 20)]);
        let mut annulus_instance = SpatialInstance::new(Schema::from_names(["P"]));
        annulus_instance.set_region(0, annulus_region);
        let annulus = top(&annulus_instance);
        assert_ne!(square.canonical_code(), annulus.canonical_code());

        // Two disjoint squares differ from one.
        let mut two = Region::rectangle(0, 0, 10, 10);
        two.add_ring(vec![p(20, 0), p(30, 0), p(30, 10), p(20, 10)]);
        let mut two_instance = SpatialInstance::new(Schema::from_names(["P"]));
        two_instance.set_region(0, two);
        assert_ne!(square.canonical_code(), top(&two_instance).canonical_code());
    }

    #[test]
    fn orderings_cover_all_cells_for_every_choice() {
        // A figure with branching: a square with an antenna attached to one
        // corner, so vertices survive the reduction.
        let mut region = Region::rectangle(0, 0, 10, 10);
        region.add_polyline(vec![p(10, 10), p(20, 20)]);
        let mut instance = SpatialInstance::new(Schema::from_names(["P"]));
        instance.set_region(0, region);
        let invariant = top(&instance);
        assert_eq!(invariant.components().len(), 1);
        let orderings = component_orderings(&invariant, 0, Orientation::CounterClockwise);
        assert!(!orderings.is_empty());
        let comp = &invariant.components()[0];
        let expected_len = comp.vertices.len() + comp.edges.len() + invariant.owned_faces(0).len();
        for ordering in &orderings {
            assert_eq!(ordering.order.len(), expected_len);
            // Every cell appears exactly once.
            let mut seen = std::collections::HashSet::new();
            for cell in &ordering.order {
                assert!(seen.insert(*cell));
            }
        }
    }

    #[test]
    fn canonical_agrees_with_relational_isomorphism() {
        // Cross-validate the canonical code against the generic isomorphism
        // test on the exported relational structures.
        let a = top(&square_instance());
        let mut shifted = SpatialInstance::new(Schema::from_names(["P"]));
        shifted.set_region(0, Region::rectangle(500, 500, 900, 777));
        let b = top(&shifted);
        assert_eq!(a.canonical_code(), b.canonical_code());
        assert!(topo_relational::isomorphic(&a.to_structure(), &b.to_structure()));

        let mut annulus_region = Region::rectangle(0, 0, 30, 30);
        annulus_region.add_ring(vec![p(10, 10), p(20, 10), p(20, 20), p(10, 20)]);
        let mut annulus_instance = SpatialInstance::new(Schema::from_names(["P"]));
        annulus_instance.set_region(0, annulus_region);
        let c = top(&annulus_instance);
        assert_ne!(a.canonical_code(), c.canonical_code());
        assert!(!topo_relational::isomorphic(&a.to_structure(), &c.to_structure()));
    }

    /// The instances used for the in-crate partition-equivalence check: a mix
    /// of equivalent pairs (transformed copies) and inequivalent topologies.
    fn zoo() -> Vec<SpatialInstance> {
        let mut out = Vec::new();
        out.push(square_instance());
        let mut shifted = SpatialInstance::new(Schema::from_names(["P"]));
        shifted.set_region(0, Region::rectangle(500, 500, 900, 777));
        out.push(shifted);
        let mut annulus_region = Region::rectangle(0, 0, 30, 30);
        annulus_region.add_ring(vec![p(10, 10), p(20, 10), p(20, 20), p(10, 20)]);
        let mut annulus = SpatialInstance::new(Schema::from_names(["P"]));
        annulus.set_region(0, annulus_region);
        out.push(annulus);
        let mut two = Region::rectangle(0, 0, 10, 10);
        two.add_ring(vec![p(20, 0), p(30, 0), p(30, 10), p(20, 10)]);
        let mut two_instance = SpatialInstance::new(Schema::from_names(["P"]));
        two_instance.set_region(0, two);
        out.push(two_instance);
        let mut branching = Region::rectangle(0, 0, 10, 10);
        branching.add_polyline(vec![p(10, 10), p(20, 20)]);
        let mut branching_instance = SpatialInstance::new(Schema::from_names(["P"]));
        branching_instance.set_region(0, branching);
        out.push(branching_instance);
        let overlapping = SpatialInstance::from_regions([
            ("P", Region::rectangle(0, 0, 10, 10)),
            ("Q", Region::rectangle(5, 5, 15, 15)),
        ]);
        // Different schema width — compare only against itself.
        out.push(overlapping);
        out
    }

    #[test]
    fn token_codes_and_naive_codes_induce_the_same_partition() {
        let invariants: Vec<_> = zoo().iter().map(top).collect();
        let fast: Vec<_> = invariants.iter().map(|i| i.canonical_code().clone()).collect();
        let slow: Vec<_> = invariants.iter().map(naive::canonical_code_naive).collect();
        for i in 0..invariants.len() {
            for j in 0..invariants.len() {
                assert_eq!(
                    fast[i] == fast[j],
                    slow[i] == slow[j],
                    "partition diverged between instances {i} and {j}"
                );
            }
        }
    }

    /// Degenerate-instance hardening: empty instances, point-only and
    /// polyline-only regions, and single-cell components must canonicalise
    /// (and enumerate their reference orderings) without panicking or tripping
    /// debug assertions, under both orientations.
    mod degenerate {
        use super::*;

        fn assert_canonicalises(label: &str, instance: &SpatialInstance) {
            let invariant = top(instance);
            let form = canonical_form(&invariant);
            assert_eq!(form.order.len(), invariant.cell_count(), "{label}: order covers cells");
            assert!(!form.code.is_empty(), "{label}: even empty instances serialise the exterior");
            for c in 0..invariant.components().len() {
                for orientation in [Orientation::CounterClockwise, Orientation::Clockwise] {
                    let orderings = component_orderings(&invariant, c, orientation);
                    assert!(!orderings.is_empty(), "{label}: component {c} has an ordering");
                }
            }
            // A fresh copy of the same instance lands in the same class.
            assert!(top(instance).is_isomorphic_to(&invariant), "{label}: self-equivalent");
        }

        #[test]
        fn empty_schema_instance() {
            let names: [&str; 0] = [];
            assert_canonicalises("empty schema", &SpatialInstance::new(Schema::from_names(names)));
        }

        #[test]
        fn empty_region_instance() {
            assert_canonicalises("empty region", &SpatialInstance::new(Schema::from_names(["P"])));
        }

        #[test]
        fn point_only_regions() {
            let mut single = SpatialInstance::new(Schema::from_names(["P"]));
            single.set_region(0, Region::point_set(vec![p(5, 5)]));
            assert_canonicalises("single point", &single);

            let mut several = SpatialInstance::new(Schema::from_names(["P"]));
            several.set_region(0, Region::point_set(vec![p(0, 0), p(10, 0), p(0, 10)]));
            assert_canonicalises("three points", &several);

            // Duplicate points collapse to one cell.
            let mut duplicated = SpatialInstance::new(Schema::from_names(["P"]));
            duplicated.set_region(0, Region::point_set(vec![p(1, 1), p(1, 1)]));
            let invariant = top(&duplicated);
            assert_eq!(invariant.cell_count(), 2);
            assert!(top(&single).is_isomorphic_to(&invariant));
        }

        #[test]
        fn polyline_only_regions() {
            let mut segment = SpatialInstance::new(Schema::from_names(["P"]));
            segment.set_region(0, Region::polyline(vec![p(0, 0), p(10, 0)]));
            assert_canonicalises("single segment", &segment);

            let mut open = SpatialInstance::new(Schema::from_names(["P"]));
            open.set_region(0, Region::polyline(vec![p(0, 0), p(10, 0), p(10, 10), p(20, 10)]));
            assert_canonicalises("open polyline", &open);
            // An open polyline reduces to a single arc: same class as a segment.
            assert!(top(&open).is_isomorphic_to(&top(&segment)));

            let mut closed = SpatialInstance::new(Schema::from_names(["P"]));
            closed.set_region(0, Region::polyline(vec![p(0, 0), p(10, 0), p(10, 10), p(0, 0)]));
            assert_canonicalises("closed polyline", &closed);

            let mut retraced = SpatialInstance::new(Schema::from_names(["P"]));
            retraced.set_region(0, Region::polyline(vec![p(0, 0), p(10, 0), p(0, 0)]));
            assert_canonicalises("retraced polyline", &retraced);
        }

        #[test]
        fn single_cell_components() {
            // Isolated vertex, vertex-free closed curve and open arc: one
            // component each, every Lemma 3.1 special case in isolation.
            let mut mixed = SpatialInstance::new(Schema::from_names(["P", "Q", "L"]));
            mixed.set_region(0, Region::point_set(vec![p(200, 200)]));
            mixed.set_region(1, Region::rectangle(0, 0, 50, 50));
            mixed.set_region(2, Region::polyline(vec![p(100, 0), p(150, 0)]));
            assert_canonicalises("mixed degenerate components", &mixed);
            let invariant = top(&mixed);
            assert_eq!(invariant.components().len(), 3);
            let stats = sweep_stats(&invariant);
            assert_eq!(stats.components, 3);
        }

        #[test]
        fn point_inside_ring_hole() {
            // An isolated vertex nested two levels deep in the component tree.
            let mut annulus = Region::rectangle(0, 0, 30, 30);
            annulus.add_ring(vec![p(10, 10), p(20, 10), p(20, 20), p(10, 20)]);
            let mut instance = SpatialInstance::new(Schema::from_names(["P", "D"]));
            instance.set_region(0, annulus);
            instance.set_region(1, Region::point_set(vec![p(15, 15)]));
            assert_canonicalises("point inside ring hole", &instance);
        }
    }

    /// The live refinement returns exactly the frozen oracle's colours.
    fn assert_colours_match_oracle(invariant: &TopologicalInvariant, label: &str) {
        assert_eq!(
            start_filter_colours(invariant),
            naive::refine_colours_naive(invariant),
            "{label}: start-filter colours diverged from the frozen oracle"
        );
    }

    #[test]
    fn refinement_matches_the_frozen_oracle_on_the_zoo() {
        for (i, instance) in zoo().iter().enumerate() {
            assert_colours_match_oracle(&top(instance), &format!("zoo instance {i}"));
        }
    }

    /// A comb whose vertices start in shared classes and end discrete: the
    /// spine ends and the first two junctions are told apart in round 1 (by
    /// the R tooth at the third junction), the two Q tooth tips in round 2.
    #[test]
    fn refinement_reaches_a_discrete_colouring() {
        let mut spine = Region::new();
        spine.add_polyline(vec![p(0, 0), p(40, 0)]);
        let mut q_teeth = Region::new();
        q_teeth.add_polyline(vec![p(10, 0), p(10, 10)]);
        q_teeth.add_polyline(vec![p(20, 0), p(20, 10)]);
        let mut r_tooth = Region::new();
        r_tooth.add_polyline(vec![p(30, 0), p(30, 10)]);
        let instance =
            SpatialInstance::from_regions([("P", spine), ("Q", q_teeth), ("R", r_tooth)]);
        let invariant = top(&instance);
        let nv = invariant.vertex_count();
        assert_eq!(nv, 8);
        let initial: std::collections::HashSet<(Vec<usize>, usize)> = (0..nv)
            .map(|v| (invariant.vertex_regions(v).iter().collect(), invariant.degree(v)))
            .collect();
        assert!(initial.len() < nv, "the initial colouring must not already be discrete");
        let (vertex_colour, _) = start_filter_colours(&invariant);
        let distinct: std::collections::HashSet<u32> = vertex_colour.iter().copied().collect();
        assert_eq!(distinct.len(), nv, "refinement must end discrete");
        assert_colours_match_oracle(&invariant, "comb");
    }

    #[test]
    fn canonical_order_is_a_permutation_of_all_cells() {
        for instance in zoo() {
            let invariant = top(&instance);
            let form = canonical_form(&invariant);
            assert_eq!(form.order.len(), invariant.cell_count());
            let set: std::collections::HashSet<_> = form.order.iter().collect();
            assert_eq!(set.len(), invariant.cell_count());
            assert_eq!(*form.order.last().unwrap(), (CellKind::Face, invariant.exterior_face()));
            assert_eq!(&form.code, invariant.canonical_code());
        }
    }
}
