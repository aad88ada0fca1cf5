//! Flat, branchless compiled forms of the fitted tree / rule /
//! ensemble models.
//!
//! The interpreted predictors walk `Box<Node>` trees and `Vec<Rule>`
//! lists per window — every hop a pointer chase through the heap. The
//! paper's premise is that HMD inference has to run at hardware speed,
//! and the in-repo FPGA datapath already lowers fitted models into
//! comparator arrays for area estimates; this module performs the same
//! lowering for raw CPU speed. Every fitted model becomes a contiguous
//! array of cache-line-packed [`FlatNode`]s (24 bytes each) evaluated
//! by index-chasing loops with branch-free child selection:
//!
//! * [`CompiledTree`] — J48 / REPTree / DecisionStump / ZeroR
//! * [`CompiledRules`] — JRip / OneR ordered rule lists
//! * [`CompiledForest`] — RandomForest / Bagging majority votes
//! * [`CompiledEnsemble`] — AdaBoost.M1 weighted votes
//!
//! Compiled evaluators are **exactly** equivalent to their interpreted
//! originals — same NaN routing (a failed `<=` sends the window down
//! the right branch, a failed rule condition falls through to the
//! default class) and same tie-breaking (lowest class index for
//! unweighted votes, last maximum for weighted votes) — which the
//! proptest suite asserts on random models and windows.
//!
//! # Examples
//!
//! ```
//! use hbmd_ml::{Classifier, Dataset, J48};
//!
//! let mut data = Dataset::new(vec!["f".into()], vec!["a".into(), "b".into()])?;
//! for i in 0..10 {
//!     data.push(vec![i as f64], usize::from(i >= 5))?;
//! }
//! let mut tree = J48::new();
//! tree.fit(&data)?;
//! let compiled = tree.compile().expect("fitted");
//! assert_eq!(compiled.predict(&[9.0]), tree.predict(&[9.0]));
//! # Ok::<(), hbmd_ml::MlError>(())
//! ```

use crate::classifiers::j48::{self, J48};
use crate::classifiers::jrip::JRip;
use crate::classifiers::one_r::OneR;
use crate::classifiers::rep_tree::{self, RepTree};
use crate::classifiers::stump::DecisionStump;
use crate::classifiers::zero_r::ZeroR;
use crate::data::RowsView;
use crate::ensemble::random_forest::{self, RandomForest};
use crate::ensemble::{AdaBoostM1, Bagging};

/// Sentinel in [`FlatNode::feature`] marking a leaf.
const LEAF: u32 = u32::MAX;

/// Rows per batch tile: small enough that the per-tile vote matrix
/// stays in L1 while members stream over it.
const TILE: usize = 64;

/// Vote buffers up to this many classes live on the stack.
const STACK_CLASSES: usize = 16;

/// One lowered decision node: 24 bytes, two per cache line with room
/// to spare, no pointers.
///
/// `feature == u32::MAX` marks a leaf whose answer is `class`;
/// otherwise the evaluator compares `row[feature] <= threshold` and
/// steps to `children[0]` (true) or `children[1]` (false — which is
/// where NaN goes, mirroring the interpreted `if/else`).
#[derive(Debug, Clone, Copy)]
pub struct FlatNode {
    threshold: f64,
    children: [u32; 2],
    feature: u32,
    class: u32,
}

impl FlatNode {
    fn leaf(class: u32) -> FlatNode {
        FlatNode {
            threshold: 0.0,
            children: [0, 0],
            feature: LEAF,
            class,
        }
    }

    fn inner(feature: u32, threshold: f64, left: u32, right: u32) -> FlatNode {
        FlatNode {
            threshold,
            children: [left, right],
            feature,
            class: 0,
        }
    }
}

/// Walk the flat node array from `root`; returns the leaf class.
// The negated `<=` is the specification, not an accident: it must be
// false exactly when the interpreted `if x <= t { left } else { right }`
// takes the left branch, including for NaN.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
fn eval_from(nodes: &[FlatNode], root: u32, row: &[f64]) -> u32 {
    let mut idx = root as usize;
    loop {
        let node = nodes[idx];
        if node.feature == LEAF {
            return node.class;
        }
        // `<=` is false for NaN, so NaN windows take the right branch
        // — byte-identical routing to the pointer-walking originals.
        let right = !(row[node.feature as usize] <= node.threshold);
        idx = node.children[usize::from(right)] as usize;
    }
}

/// How many independent row walks the batched evaluators advance in
/// lockstep. Each walk is a serial chain of data-dependent loads;
/// interleaving keeps several loads in flight so the chains' latencies
/// overlap instead of adding up.
const LANES: usize = 8;

/// Walk `count` (≤ [`LANES`]) consecutive rows starting at `base`
/// through the flat array from `root` simultaneously, writing each
/// row's leaf class into `classes`.
///
/// The per-lane step is branch-free (conditional moves only): finished
/// lanes absorb at their leaf while the others keep stepping, so the
/// loop carries no unpredictable branches.
// The negated `<=` is the specification, not an accident — see
// `eval_from`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
fn eval_lanes(
    nodes: &[FlatNode],
    root: u32,
    rows: RowsView<'_>,
    base: usize,
    count: usize,
    classes: &mut [u32; LANES],
) {
    let mut lanes: [&[f64]; LANES] = [&[]; LANES];
    for lane in 0..count {
        lanes[lane] = &rows[base + lane];
    }
    let mut idx = [root as usize; LANES];
    let mut live = count;
    while live > 0 {
        live = 0;
        for lane in 0..count {
            let node = nodes[idx[lane]];
            let done = node.feature == LEAF;
            // A leaf's `feature` is the sentinel, not a row index;
            // redirect to column 0 so the load is always in bounds (the
            // result is discarded below when `done`).
            let feature = if done { 0 } else { node.feature as usize };
            let right = !(lanes[lane][feature] <= node.threshold);
            let next = node.children[usize::from(right)] as usize;
            idx[lane] = if done { idx[lane] } else { next };
            live += usize::from(!done);
        }
    }
    for lane in 0..count {
        classes[lane] = nodes[idx[lane]].class;
    }
}

/// Lowest class index among the maxima — the unweighted-vote
/// tie-break used by `RandomForest::predict` and `Bagging::predict`.
#[inline]
fn first_max(votes: &[u32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in votes.iter().enumerate().skip(1) {
        if v > votes[best] {
            best = i;
        }
    }
    best
}

/// Highest class index among the maxima — `Iterator::max_by` keeps the
/// last maximum, which is what `AdaBoostM1::predict` relies on.
#[inline]
fn last_max(votes: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, &v) in votes.iter().enumerate().skip(1) {
        if v >= votes[best] {
            best = i;
        }
    }
    best
}

/// A fitted decision tree lowered to a contiguous preorder node array;
/// evaluation is an index-chasing loop — no recursion, no `Box`.
#[derive(Debug, Clone)]
pub struct CompiledTree {
    nodes: Vec<FlatNode>,
}

impl CompiledTree {
    /// Classify one window.
    pub fn predict(&self, row: &[f64]) -> usize {
        eval_from(&self.nodes, 0, row) as usize
    }

    /// Classify a batch of windows from a columnar row view.
    ///
    /// A single tree is shallow and its nodes all cache-resident, so
    /// the serial walk beats lane interleaving here (unlike
    /// [`CompiledForest::predict_batch`], whose many deep members are
    /// load-latency-bound).
    pub fn predict_batch(&self, rows: RowsView<'_>) -> Vec<usize> {
        rows.iter()
            .map(|row| eval_from(&self.nodes, 0, row) as usize)
            .collect()
    }

    /// Number of flat nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes occupied by the node array.
    pub fn byte_size(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<FlatNode>()
    }
}

/// One lowered rule condition.
#[derive(Debug, Clone, Copy)]
struct FlatCondition {
    threshold: f64,
    feature: u32,
    less_equal: bool,
}

impl FlatCondition {
    #[inline]
    fn covers(&self, row: &[f64]) -> bool {
        let value = row[self.feature as usize];
        // Both compares are false for NaN, so a NaN window falls
        // through every rule to the default class — same as the
        // interpreted `Condition::covers`.
        if self.less_equal {
            value <= self.threshold
        } else {
            value >= self.threshold
        }
    }
}

/// `(start, len, class)` of one rule's conditions in the flat pool.
#[derive(Debug, Clone, Copy)]
struct FlatRule {
    start: u32,
    len: u32,
    class: u32,
}

/// A fitted ordered rule list (JRip / OneR) lowered to one contiguous
/// condition pool: first rule whose conditions all hold wins, else the
/// default class.
#[derive(Debug, Clone)]
pub struct CompiledRules {
    conditions: Vec<FlatCondition>,
    rules: Vec<FlatRule>,
    default_class: u32,
}

impl CompiledRules {
    /// Classify one window.
    pub fn predict(&self, row: &[f64]) -> usize {
        'rules: for rule in &self.rules {
            let start = rule.start as usize;
            for condition in &self.conditions[start..start + rule.len as usize] {
                if !condition.covers(row) {
                    continue 'rules;
                }
            }
            return rule.class as usize;
        }
        self.default_class as usize
    }

    /// Classify a batch of windows from a columnar row view.
    pub fn predict_batch(&self, rows: RowsView<'_>) -> Vec<usize> {
        rows.iter().map(|row| self.predict(row)).collect()
    }

    /// Number of comparators (flat conditions) across all rules.
    pub fn node_count(&self) -> usize {
        self.conditions.len()
    }

    /// Bytes occupied by the condition pool and rule index.
    pub fn byte_size(&self) -> usize {
        self.conditions.len() * std::mem::size_of::<FlatCondition>()
            + self.rules.len() * std::mem::size_of::<FlatRule>()
    }
}

/// A fitted unweighted committee of trees (RandomForest /
/// `Bagging<J48>`) sharing one contiguous node array; members evaluate
/// back-to-back and majority vote with ties going to the lowest class
/// index.
#[derive(Debug, Clone)]
pub struct CompiledForest {
    nodes: Vec<FlatNode>,
    roots: Vec<u32>,
    /// Vote-buffer width: `num_classes.max(2)`, as the interpreters use.
    width: usize,
}

impl CompiledForest {
    /// Classify one window.
    pub fn predict(&self, row: &[f64]) -> usize {
        self.with_class_votes(row, first_max)
    }

    /// Classify a batch of windows from a columnar row view.
    ///
    /// Evaluates members-outer over row tiles so each tree's nodes
    /// stay hot in cache while the windows stream past; integer votes
    /// make the result order-independent and identical to per-row
    /// evaluation.
    pub fn predict_batch(&self, rows: RowsView<'_>) -> Vec<usize> {
        let n = rows.len();
        let width = self.width;
        let mut out = Vec::with_capacity(n);
        let mut votes = vec![0u32; TILE * width];
        let mut start = 0;
        while start < n {
            let len = TILE.min(n - start);
            votes[..len * width].fill(0);
            let mut classes = [0u32; LANES];
            for &root in &self.roots {
                let mut slot = 0;
                while slot < len {
                    let count = LANES.min(len - slot);
                    eval_lanes(&self.nodes, root, rows, start + slot, count, &mut classes);
                    for (lane, &class) in classes[..count].iter().enumerate() {
                        let class = class as usize;
                        if class < width {
                            votes[(slot + lane) * width + class] += 1;
                        }
                    }
                    slot += count;
                }
            }
            for slot in 0..len {
                out.push(first_max(&votes[slot * width..(slot + 1) * width]));
            }
            start += len;
        }
        out
    }

    /// Number of member trees voting in this committee.
    pub fn members(&self) -> usize {
        self.roots.len()
    }

    /// Tally the per-class raw vote counts for one window, in
    /// class-index order, and hand them to `f`.
    ///
    /// The counts sum to [`CompiledForest::members`];
    /// [`CompiledForest::predict`] is `first_max` over them. The vote
    /// spread is the raw material for disagreement-based defenses: an
    /// adversarially perturbed window that barely flips the majority
    /// leaves a near-even split behind. Up to 16 classes tally on the
    /// stack, so a call does not allocate.
    pub fn with_class_votes<R>(&self, row: &[f64], f: impl FnOnce(&[u32]) -> R) -> R {
        let mut stack = [0u32; STACK_CLASSES];
        let mut heap;
        let votes: &mut [u32] = if self.width <= STACK_CLASSES {
            &mut stack[..self.width]
        } else {
            heap = vec![0u32; self.width];
            &mut heap
        };
        for &root in &self.roots {
            let class = eval_from(&self.nodes, root, row) as usize;
            if class < votes.len() {
                votes[class] += 1;
            }
        }
        f(votes)
    }

    /// Number of flat nodes across all members.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes occupied by the node array and root index.
    pub fn byte_size(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<FlatNode>()
            + self.roots.len() * std::mem::size_of::<u32>()
    }
}

/// A fitted weighted committee (AdaBoost.M1 over decision stumps)
/// sharing one contiguous node array; members add their vote weight in
/// training order and the last maximum wins, mirroring the
/// interpreter's `max_by` fold.
#[derive(Debug, Clone)]
pub struct CompiledEnsemble {
    nodes: Vec<FlatNode>,
    /// `(root, alpha)` per member, in training order.
    members: Vec<(u32, f64)>,
    /// Vote-buffer width: `num_classes.max(2)`, as the interpreter uses.
    width: usize,
}

impl CompiledEnsemble {
    /// Classify one window.
    pub fn predict(&self, row: &[f64]) -> usize {
        self.with_class_weights(row, last_max)
    }

    /// Classify a batch of windows from a columnar row view.
    ///
    /// Members run outer over row tiles, so each vote slot accumulates
    /// its weights in exactly the training order the interpreter uses —
    /// the float sums are bit-identical to per-row evaluation.
    pub fn predict_batch(&self, rows: RowsView<'_>) -> Vec<usize> {
        let n = rows.len();
        let width = self.width;
        let mut out = Vec::with_capacity(n);
        let mut votes = vec![0.0f64; TILE * width];
        let mut start = 0;
        while start < n {
            let len = TILE.min(n - start);
            votes[..len * width].fill(0.0);
            for &(root, alpha) in &self.members {
                for slot in 0..len {
                    let class = eval_from(&self.nodes, root, &rows[start + slot]) as usize;
                    if class < width {
                        votes[slot * width + class] += alpha;
                    }
                }
            }
            for slot in 0..len {
                out.push(last_max(&votes[slot * width..(slot + 1) * width]));
            }
            start += len;
        }
        out
    }

    /// Number of weighted members voting in this committee.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Accumulate the per-class vote weight for one window, in
    /// class-index order, and hand it to `f` — the weighted analogue of
    /// [`CompiledForest::with_class_votes`], and like it allocation-free
    /// up to 16 classes.
    pub fn with_class_weights<R>(&self, row: &[f64], f: impl FnOnce(&[f64]) -> R) -> R {
        let mut stack = [0.0f64; STACK_CLASSES];
        let mut heap;
        let votes: &mut [f64] = if self.width <= STACK_CLASSES {
            &mut stack[..self.width]
        } else {
            heap = vec![0.0f64; self.width];
            &mut heap
        };
        for &(root, alpha) in &self.members {
            let class = eval_from(&self.nodes, root, row) as usize;
            if class < votes.len() {
                votes[class] += alpha;
            }
        }
        f(votes)
    }

    /// Number of flat nodes across all members.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes occupied by the node array and member index.
    pub fn byte_size(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<FlatNode>()
            + self.members.len() * std::mem::size_of::<(u32, f64)>()
    }
}

/// Any compiled evaluator, for call sites (the detector cache, the
/// bench tables) that hold heterogeneous schemes.
#[derive(Debug, Clone)]
pub enum CompiledModel {
    /// Flat decision tree (J48 / REPTree / DecisionStump / ZeroR).
    Tree(CompiledTree),
    /// Flat ordered rule list (JRip / OneR).
    Rules(CompiledRules),
    /// Unweighted majority-vote committee (RandomForest / Bagging).
    Forest(CompiledForest),
    /// Weighted-vote committee (AdaBoost.M1).
    Ensemble(CompiledEnsemble),
}

impl CompiledModel {
    /// Classify one window.
    pub fn predict(&self, row: &[f64]) -> usize {
        match self {
            CompiledModel::Tree(t) => t.predict(row),
            CompiledModel::Rules(r) => r.predict(row),
            CompiledModel::Forest(f) => f.predict(row),
            CompiledModel::Ensemble(e) => e.predict(row),
        }
    }

    /// Classify a batch of windows from a columnar row view.
    pub fn predict_batch(&self, rows: RowsView<'_>) -> Vec<usize> {
        match self {
            CompiledModel::Tree(t) => t.predict_batch(rows),
            CompiledModel::Rules(r) => r.predict_batch(rows),
            CompiledModel::Forest(f) => f.predict_batch(rows),
            CompiledModel::Ensemble(e) => e.predict_batch(rows),
        }
    }

    /// Number of flat nodes / comparators.
    pub fn node_count(&self) -> usize {
        match self {
            CompiledModel::Tree(t) => t.node_count(),
            CompiledModel::Rules(r) => r.node_count(),
            CompiledModel::Forest(f) => f.node_count(),
            CompiledModel::Ensemble(e) => e.node_count(),
        }
    }

    /// Bytes occupied by the flat arrays.
    pub fn byte_size(&self) -> usize {
        match self {
            CompiledModel::Tree(t) => t.byte_size(),
            CompiledModel::Rules(r) => r.byte_size(),
            CompiledModel::Forest(f) => f.byte_size(),
            CompiledModel::Ensemble(e) => e.byte_size(),
        }
    }

    /// Committee disagreement on one window: `1 − winning share of the
    /// vote mass`, in `[0, 1 − 1/width]`.
    ///
    /// `0.0` means every member (or all the weight) agrees; values near
    /// `0.5` mean the committee split down the middle — the signature a
    /// decision-boundary evasion leaves behind. `None` for single-model
    /// evaluators (trees, rule lists), which have no committee to
    /// disagree, and for degenerate committees with no vote mass.
    pub fn disagreement(&self, row: &[f64]) -> Option<f64> {
        match self {
            CompiledModel::Tree(_) | CompiledModel::Rules(_) => None,
            CompiledModel::Forest(f) => f.with_class_votes(row, |votes| {
                let total: u32 = votes.iter().sum();
                let top = votes.iter().copied().max().unwrap_or(0);
                (total > 0).then(|| 1.0 - f64::from(top) / f64::from(total))
            }),
            CompiledModel::Ensemble(e) => e.with_class_weights(row, |votes| {
                let total: f64 = votes.iter().sum();
                let top = votes.iter().copied().fold(0.0f64, f64::max);
                (total > 0.0).then(|| 1.0 - top / total)
            }),
        }
    }
}

/// Uniform view over the three private `Node` enums so one flattener
/// serves them all.
enum TreeStep<'a, T: ?Sized> {
    Leaf(usize),
    Inner {
        feature: usize,
        threshold: f64,
        left: &'a T,
        right: &'a T,
    },
}

trait TreeSource {
    fn step(&self) -> TreeStep<'_, Self>;
}

impl TreeSource for j48::Node {
    fn step(&self) -> TreeStep<'_, j48::Node> {
        match self {
            j48::Node::Leaf { class, .. } => TreeStep::Leaf(*class),
            j48::Node::Inner {
                feature,
                threshold,
                left,
                right,
            } => TreeStep::Inner {
                feature: *feature,
                threshold: *threshold,
                left,
                right,
            },
        }
    }
}

impl TreeSource for rep_tree::Node {
    fn step(&self) -> TreeStep<'_, rep_tree::Node> {
        match self {
            rep_tree::Node::Leaf { class } => TreeStep::Leaf(*class),
            rep_tree::Node::Inner {
                feature,
                threshold,
                left,
                right,
            } => TreeStep::Inner {
                feature: *feature,
                threshold: *threshold,
                left,
                right,
            },
        }
    }
}

impl TreeSource for random_forest::Node {
    fn step(&self) -> TreeStep<'_, random_forest::Node> {
        match self {
            random_forest::Node::Leaf { class } => TreeStep::Leaf(*class),
            random_forest::Node::Inner {
                feature,
                threshold,
                left,
                right,
            } => TreeStep::Inner {
                feature: *feature,
                threshold: *threshold,
                left,
                right,
            },
        }
    }
}

/// Flatten `node` into `out` in preorder; returns the subtree's root
/// index.
fn flatten<T: TreeSource>(node: &T, out: &mut Vec<FlatNode>) -> u32 {
    match node.step() {
        TreeStep::Leaf(class) => {
            let at = out.len() as u32;
            out.push(FlatNode::leaf(class as u32));
            at
        }
        TreeStep::Inner {
            feature,
            threshold,
            left,
            right,
        } => {
            let at = out.len() as u32;
            out.push(FlatNode::leaf(0)); // patched below
            let left_at = flatten(left, out);
            let right_at = flatten(right, out);
            out[at as usize] = FlatNode::inner(feature as u32, threshold, left_at, right_at);
            at
        }
    }
}

impl J48 {
    /// Lower the fitted tree into a flat evaluator (`None` before fit).
    pub fn compile(&self) -> Option<CompiledTree> {
        self.root().map(|root| {
            let mut nodes = Vec::new();
            flatten(root, &mut nodes);
            CompiledTree { nodes }
        })
    }
}

impl RepTree {
    /// Lower the fitted tree into a flat evaluator (`None` before fit).
    pub fn compile(&self) -> Option<CompiledTree> {
        self.root().map(|root| {
            let mut nodes = Vec::new();
            flatten(root, &mut nodes);
            CompiledTree { nodes }
        })
    }
}

impl DecisionStump {
    /// Lower the fitted test into a three-node flat tree (`None`
    /// before fit).
    pub fn compile(&self) -> Option<CompiledTree> {
        self.model().map(|m| CompiledTree {
            nodes: vec![
                FlatNode::inner(m.feature as u32, m.threshold, 1, 2),
                FlatNode::leaf(m.left_class as u32),
                FlatNode::leaf(m.right_class as u32),
            ],
        })
    }
}

impl ZeroR {
    /// Lower the majority rule into a single-leaf flat tree (`None`
    /// before fit).
    pub fn compile(&self) -> Option<CompiledTree> {
        self.majority().map(|class| CompiledTree {
            nodes: vec![FlatNode::leaf(class as u32)],
        })
    }
}

impl OneR {
    /// Lower the fitted one-feature bucket rule into a flat rule list
    /// (`None` before fit).
    ///
    /// Every bucket except the final `(∞, class)` catch-all becomes a
    /// `feature <= upper` rule; the catch-all becomes the default
    /// class, which is also where NaN windows land — exactly the
    /// interpreted scan.
    pub fn compile(&self) -> Option<CompiledRules> {
        self.model().map(|m| {
            let (last, head) = m
                .buckets
                .split_last()
                .expect("fitted OneR has at least one bucket");
            let mut conditions = Vec::with_capacity(head.len());
            let mut rules = Vec::with_capacity(head.len());
            for &(upper, class) in head {
                rules.push(FlatRule {
                    start: conditions.len() as u32,
                    len: 1,
                    class: class as u32,
                });
                conditions.push(FlatCondition {
                    threshold: upper,
                    feature: m.feature as u32,
                    less_equal: true,
                });
            }
            CompiledRules {
                conditions,
                rules,
                default_class: last.1 as u32,
            }
        })
    }
}

impl JRip {
    /// Lower the fitted ordered rule list into a flat condition pool
    /// (`None` before fit).
    pub fn compile(&self) -> Option<CompiledRules> {
        let default_class = self.default_class()?;
        let mut conditions = Vec::with_capacity(self.num_conditions());
        let mut rules = Vec::with_capacity(self.num_rules());
        for rule in self.rules() {
            rules.push(FlatRule {
                start: conditions.len() as u32,
                len: rule.conditions.len() as u32,
                class: rule.class as u32,
            });
            for condition in &rule.conditions {
                conditions.push(FlatCondition {
                    threshold: condition.threshold,
                    feature: condition.feature as u32,
                    less_equal: condition.less_equal,
                });
            }
        }
        Some(CompiledRules {
            conditions,
            rules,
            default_class: default_class as u32,
        })
    }
}

impl RandomForest {
    /// Lower the fitted forest into one shared flat node array (`None`
    /// before fit).
    pub fn compile(&self) -> Option<CompiledForest> {
        let (trees, num_classes) = self.parts();
        if trees.is_empty() {
            return None;
        }
        let mut nodes = Vec::new();
        let roots = trees.iter().map(|tree| flatten(tree, &mut nodes)).collect();
        Some(CompiledForest {
            nodes,
            roots,
            width: num_classes.max(2),
        })
    }
}

impl Bagging<J48> {
    /// Lower the fitted committee of trees into one shared flat node
    /// array (`None` before fit).
    pub fn compile(&self) -> Option<CompiledForest> {
        if self.members().is_empty() {
            return None;
        }
        let mut nodes = Vec::new();
        let mut roots = Vec::with_capacity(self.members().len());
        for member in self.members() {
            roots.push(flatten(member.root()?, &mut nodes));
        }
        Some(CompiledForest {
            nodes,
            roots,
            width: self.classes().max(2),
        })
    }
}

impl AdaBoostM1<DecisionStump> {
    /// Lower the fitted weighted committee of stumps into one shared
    /// flat node array (`None` before fit).
    pub fn compile(&self) -> Option<CompiledEnsemble> {
        let (members, num_classes) = self.parts();
        if members.is_empty() {
            return None;
        }
        let mut nodes = Vec::with_capacity(members.len() * 3);
        let mut flat = Vec::with_capacity(members.len());
        for (stump, alpha) in members {
            let m = stump.model()?;
            let root = nodes.len() as u32;
            nodes.push(FlatNode::inner(
                m.feature as u32,
                m.threshold,
                root + 1,
                root + 2,
            ));
            nodes.push(FlatNode::leaf(m.left_class as u32));
            nodes.push(FlatNode::leaf(m.right_class as u32));
            flat.push((root, *alpha));
        }
        Some(CompiledEnsemble {
            nodes,
            members: flat,
            width: num_classes.max(2),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::data::{Dataset, MlError};

    fn two_feature_data() -> Result<Dataset, MlError> {
        let mut data = Dataset::new(
            vec!["a".into(), "b".into()],
            vec!["benign".into(), "malware".into()],
        )?;
        for i in 0..40 {
            let x = f64::from(i);
            data.push(vec![x, 40.0 - x], usize::from(i % 7 < 3))?;
        }
        Ok(data)
    }

    fn probes() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in -5..45 {
            rows.push(vec![f64::from(i), f64::from(45 - i)]);
        }
        rows.push(vec![f64::NAN, 3.0]);
        rows.push(vec![3.0, f64::NAN]);
        rows.push(vec![f64::NAN, f64::NAN]);
        rows
    }

    fn assert_matches<C: Classifier>(model: &C, compiled: &CompiledModel) {
        let rows = probes();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let view = RowsView::new(&flat, 2);
        let batch = compiled.predict_batch(view);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                compiled.predict(row),
                model.predict(row),
                "{} row {row:?}",
                model.name()
            );
            assert_eq!(batch[i], model.predict(row), "batch row {row:?}");
        }
    }

    #[test]
    fn trees_and_rules_match_interpreters() -> Result<(), MlError> {
        let data = two_feature_data()?;
        let mut j48 = J48::new();
        j48.fit(&data)?;
        assert_matches(&j48, &CompiledModel::Tree(j48.compile().expect("fitted")));
        let mut rep = RepTree::new();
        rep.fit(&data)?;
        assert_matches(&rep, &CompiledModel::Tree(rep.compile().expect("fitted")));
        let mut stump = DecisionStump::new();
        stump.fit(&data)?;
        assert_matches(
            &stump,
            &CompiledModel::Tree(stump.compile().expect("fitted")),
        );
        let mut zr = ZeroR::new();
        zr.fit(&data)?;
        assert_matches(&zr, &CompiledModel::Tree(zr.compile().expect("fitted")));
        let mut one_r = OneR::new();
        one_r.fit(&data)?;
        assert_matches(
            &one_r,
            &CompiledModel::Rules(one_r.compile().expect("fitted")),
        );
        let mut jrip = JRip::new();
        jrip.fit(&data)?;
        assert_matches(
            &jrip,
            &CompiledModel::Rules(jrip.compile().expect("fitted")),
        );
        Ok(())
    }

    #[test]
    fn committees_match_interpreters() -> Result<(), MlError> {
        let data = two_feature_data()?;
        let mut forest = RandomForest::new(12);
        forest.fit(&data)?;
        assert_matches(
            &forest,
            &CompiledModel::Forest(forest.compile().expect("fitted")),
        );
        let mut bagging = Bagging::new(J48::new(), 8);
        bagging.fit(&data)?;
        assert_matches(
            &bagging,
            &CompiledModel::Forest(bagging.compile().expect("fitted")),
        );
        let mut boost = AdaBoostM1::new(DecisionStump::new(), 10);
        boost.fit(&data)?;
        assert_matches(
            &boost,
            &CompiledModel::Ensemble(boost.compile().expect("fitted")),
        );
        Ok(())
    }

    #[test]
    fn unfitted_models_do_not_compile() {
        assert!(J48::new().compile().is_none());
        assert!(RepTree::new().compile().is_none());
        assert!(DecisionStump::new().compile().is_none());
        assert!(ZeroR::new().compile().is_none());
        assert!(OneR::new().compile().is_none());
        assert!(JRip::new().compile().is_none());
        assert!(RandomForest::new(4).compile().is_none());
        assert!(Bagging::new(J48::new(), 4).compile().is_none());
        assert!(AdaBoostM1::new(DecisionStump::new(), 4).compile().is_none());
    }

    #[test]
    fn committee_vote_accessors_are_consistent_with_predict() -> Result<(), MlError> {
        let data = two_feature_data()?;
        let mut forest = RandomForest::new(12);
        forest.fit(&data)?;
        let compiled = forest.compile().expect("fitted");
        for row in probes() {
            let votes = compiled.with_class_votes(&row, <[u32]>::to_vec);
            let total: u32 = votes.iter().sum();
            assert_eq!(total as usize, compiled.members(), "row {row:?}");
            assert_eq!(first_max(&votes), compiled.predict(&row), "row {row:?}");
        }

        let mut boost = AdaBoostM1::new(DecisionStump::new(), 10);
        boost.fit(&data)?;
        let compiled = boost.compile().expect("fitted");
        for row in probes() {
            let weights = compiled.with_class_weights(&row, <[f64]>::to_vec);
            assert_eq!(last_max(&weights), compiled.predict(&row), "row {row:?}");
        }
        Ok(())
    }

    #[test]
    fn disagreement_is_bounded_and_committee_only() -> Result<(), MlError> {
        let data = two_feature_data()?;
        let mut j48 = J48::new();
        j48.fit(&data)?;
        let tree = CompiledModel::Tree(j48.compile().expect("fitted"));
        assert_eq!(tree.disagreement(&[1.0, 2.0]), None);

        let mut forest = RandomForest::new(12);
        forest.fit(&data)?;
        let forest = CompiledModel::Forest(forest.compile().expect("fitted"));
        let mut boost = AdaBoostM1::new(DecisionStump::new(), 10);
        boost.fit(&data)?;
        let boost = CompiledModel::Ensemble(boost.compile().expect("fitted"));
        for row in probes() {
            for model in [&forest, &boost] {
                let d = model.disagreement(&row).expect("committee");
                assert!((0.0..=0.5).contains(&d), "binary dispersion {d} {row:?}");
            }
        }
        // A unanimous committee region reports zero disagreement.
        let deep_benign = vec![39.0, 1.0];
        let votes = match &forest {
            CompiledModel::Forest(f) => f.with_class_votes(&deep_benign, <[u32]>::to_vec),
            _ => unreachable!(),
        };
        if votes.iter().filter(|&&v| v > 0).count() == 1 {
            assert_eq!(forest.disagreement(&deep_benign), Some(0.0));
        }
        Ok(())
    }

    #[test]
    fn footprint_is_reported() -> Result<(), MlError> {
        let data = two_feature_data()?;
        let mut j48 = J48::new();
        j48.fit(&data)?;
        let compiled = CompiledModel::Tree(j48.compile().expect("fitted"));
        assert_eq!(
            compiled.node_count(),
            j48.num_leaves() + j48.num_internal_nodes()
        );
        assert_eq!(
            compiled.byte_size(),
            compiled.node_count() * std::mem::size_of::<FlatNode>()
        );
        assert_eq!(std::mem::size_of::<FlatNode>(), 24);
        Ok(())
    }
}
