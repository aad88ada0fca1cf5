use crate::classifier::Classifier;
use crate::classifiers::split::{best_split, histogram, majority};
use crate::data::{Dataset, MlError, RowsView};

/// WEKA `J48`: the C4.5 decision-tree learner.
///
/// Grows a binary tree on numeric attributes by gain ratio, then applies
/// C4.5's pessimistic (confidence-bound) subtree-replacement pruning.
/// Structure accessors ([`num_leaves`](J48::num_leaves),
/// [`depth`](J48::depth)) feed the FPGA cost model: a tree in hardware
/// is a comparator per internal node with latency proportional to depth.
///
/// # Examples
///
/// ```
/// use hbmd_ml::{Classifier, Dataset, J48};
///
/// let mut data = Dataset::new(
///     vec!["x".into(), "y".into()],
///     vec!["a".into(), "b".into()],
/// )?;
/// for i in 0..40 {
///     let x = (i % 8) as f64;
///     let y = (i / 8) as f64;
///     data.push(vec![x, y], usize::from(x >= 4.0))?;
/// }
/// let mut tree = J48::new();
/// tree.fit(&data)?;
/// assert_eq!(tree.predict(&[7.0, 2.0]), 1);
/// assert!(tree.num_leaves() >= 2);
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct J48 {
    min_leaf: usize,
    confidence_z: f64,
    max_depth: usize,
    root: Option<Node>,
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        class: usize,
        errors: usize,
        total: usize,
    },
    Inner {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl J48 {
    /// The fitted tree, for the flat compiler in [`crate::compiled`].
    pub(crate) fn root(&self) -> Option<&Node> {
        self.root.as_ref()
    }

    /// J48 with WEKA defaults: minimum 2 instances per leaf, pruning
    /// confidence 0.25.
    pub fn new() -> J48 {
        J48 {
            min_leaf: 2,
            // z for the C4.5 default confidence factor 0.25.
            confidence_z: 0.6925,
            max_depth: 40,
            root: None,
        }
    }

    /// Disable pruning (grow the full tree).
    pub fn unpruned(mut self) -> J48 {
        self.confidence_z = 0.0;
        self
    }

    /// Number of leaves (0 before fit).
    pub fn num_leaves(&self) -> usize {
        self.root.as_ref().map(count_leaves).unwrap_or(0)
    }

    /// Number of internal (test) nodes (0 before fit).
    pub fn num_internal_nodes(&self) -> usize {
        self.root.as_ref().map(count_inner).unwrap_or(0)
    }

    /// Tree depth in test nodes along the longest path (0 before fit;
    /// 0 for a single-leaf tree).
    pub fn depth(&self) -> usize {
        self.root.as_ref().map(node_depth).unwrap_or(0)
    }

    fn build(&self, data: &Dataset, indices: &[usize], depth: usize) -> Node {
        let counts = histogram(data, indices);
        let class = majority(data, indices);
        let total = indices.len();
        let errors = total - counts[class];
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= self.max_depth || total < 2 * self.min_leaf {
            return Node::Leaf {
                class,
                errors,
                total,
            };
        }
        match best_split(data, indices, self.min_leaf, true) {
            None => Node::Leaf {
                class,
                errors,
                total,
            },
            Some(split) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| data.rows()[i][split.feature] <= split.threshold);
                let left = self.build(data, &left_idx, depth + 1);
                let right = self.build(data, &right_idx, depth + 1);
                Node::Inner {
                    feature: split.feature,
                    threshold: split.threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
    }

    /// C4.5 subtree-replacement pruning: collapse a subtree to a leaf
    /// when the leaf's pessimistic error estimate does not exceed the
    /// subtree's.
    fn prune(&self, node: Node, data: &Dataset, indices: &[usize]) -> Node {
        match node {
            leaf @ Node::Leaf { .. } => leaf,
            Node::Inner {
                feature,
                threshold,
                left,
                right,
            } => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| data.rows()[i][feature] <= threshold);
                let left = self.prune(*left, data, &left_idx);
                let right = self.prune(*right, data, &right_idx);

                let subtree_estimate = pessimistic_errors_of(&left, self.confidence_z)
                    + pessimistic_errors_of(&right, self.confidence_z);

                let counts = histogram(data, indices);
                let class = majority(data, indices);
                let total = indices.len();
                let errors = total - counts[class];
                let leaf_estimate = pessimistic_errors(errors, total, self.confidence_z);

                if self.confidence_z > 0.0 && leaf_estimate <= subtree_estimate + 0.1 {
                    Node::Leaf {
                        class,
                        errors,
                        total,
                    }
                } else {
                    Node::Inner {
                        feature,
                        threshold,
                        left: Box::new(left),
                        right: Box::new(right),
                    }
                }
            }
        }
    }
}

/// C4.5's pessimistic error count: observed errors inflated by the
/// upper confidence bound of the binomial error rate.
fn pessimistic_errors(errors: usize, total: usize, z: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let f = errors as f64 / n;
    let z2 = z * z;
    let upper =
        (f + z2 / (2.0 * n) + z * (f * (1.0 - f) / n + z2 / (4.0 * n * n)).sqrt()) / (1.0 + z2 / n);
    upper * n
}

fn pessimistic_errors_of(node: &Node, z: f64) -> f64 {
    match node {
        Node::Leaf { errors, total, .. } => pessimistic_errors(*errors, *total, z),
        Node::Inner { left, right, .. } => {
            pessimistic_errors_of(left, z) + pessimistic_errors_of(right, z)
        }
    }
}

fn count_leaves(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 1,
        Node::Inner { left, right, .. } => count_leaves(left) + count_leaves(right),
    }
}

fn count_inner(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 0,
        Node::Inner { left, right, .. } => 1 + count_inner(left) + count_inner(right),
    }
}

fn node_depth(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 0,
        Node::Inner { left, right, .. } => 1 + node_depth(left).max(node_depth(right)),
    }
}

impl Default for J48 {
    fn default() -> J48 {
        J48::new()
    }
}

impl Classifier for J48 {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        data.check_trainable()?;
        let indices: Vec<usize> = (0..data.len()).collect();
        let grown = self.build(data, &indices, 0);
        let pruned = self.prune(grown, data, &indices);
        self.root = Some(pruned);
        Ok(())
    }

    fn predict(&self, features: &[f64]) -> usize {
        let mut node = self.root.as_ref().expect("J48::predict called before fit");
        loop {
            match node {
                Node::Leaf { class, .. } => return *class,
                Node::Inner {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn name(&self) -> &str {
        "J48"
    }

    fn predict_batch(&self, rows: RowsView<'_>) -> Vec<usize> {
        match self.compile() {
            Some(compiled) => compiled.predict_batch(rows),
            None => rows.iter().map(|r| self.predict(r)).collect(),
        }
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for J48 {
    fn snap(&self, w: &mut SnapWriter) {
        self.min_leaf.snap(w);
        self.confidence_z.snap(w);
        self.max_depth.snap(w);
        self.root.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(J48 {
            min_leaf: Snap::unsnap(r)?,
            confidence_z: Snap::unsnap(r)?,
            max_depth: Snap::unsnap(r)?,
            root: Snap::unsnap(r)?,
        })
    }
}

// Tree depth is bounded by `max_depth` at fit time, so the recursion
// here cannot overflow on any payload the snapshot layer accepts (its
// checksum rejects corrupted buffers before decoding starts).
impl Snap for Node {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            Node::Leaf {
                class,
                errors,
                total,
            } => {
                w.put_u8(0);
                class.snap(w);
                errors.snap(w);
                total.snap(w);
            }
            Node::Inner {
                feature,
                threshold,
                left,
                right,
            } => {
                w.put_u8(1);
                feature.snap(w);
                threshold.snap(w);
                left.snap(w);
                right.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(Node::Leaf {
                class: Snap::unsnap(r)?,
                errors: Snap::unsnap(r)?,
                total: Snap::unsnap(r)?,
            }),
            1 => Ok(Node::Inner {
                feature: Snap::unsnap(r)?,
                threshold: Snap::unsnap(r)?,
                left: Snap::unsnap(r)?,
                right: Snap::unsnap(r)?,
            }),
            other => Err(SnapError::Invalid(format!("J48 node tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_data() -> Dataset {
        // label = (x >= 4) AND (y >= 4): needs depth >= 2 and is
        // greedy-learnable (unlike XOR, which has zero first-split
        // gain for any threshold learner, real C4.5 included).
        let mut d = Dataset::new(
            vec!["x".into(), "y".into()],
            vec!["zero".into(), "one".into()],
        )
        .expect("schema");
        for i in 0..64 {
            let x = (i % 8) as f64;
            let y = (i / 8) as f64;
            let label = usize::from(x >= 4.0 && y >= 4.0);
            d.push(vec![x, y], label).expect("row");
        }
        d
    }

    #[test]
    fn learns_a_conjunction() {
        let data = and_data();
        let mut tree = J48::new();
        tree.fit(&data).expect("fit");
        assert_eq!(tree.predict(&[7.0, 7.0]), 1);
        assert_eq!(tree.predict(&[7.0, 0.0]), 0);
        assert_eq!(tree.predict(&[0.0, 7.0]), 0);
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pruning_shrinks_noisy_trees() {
        // Pure noise labels: an unpruned tree memorises, a pruned tree
        // should collapse (or at least be no larger).
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        for i in 0..60 {
            d.push(vec![i as f64], (i * 7 + 3) % 2).expect("row");
        }
        let mut unpruned = J48::new().unpruned();
        unpruned.fit(&d).expect("fit");
        let mut pruned = J48::new();
        pruned.fit(&d).expect("fit");
        assert!(
            pruned.num_leaves() <= unpruned.num_leaves(),
            "pruned {} vs unpruned {}",
            pruned.num_leaves(),
            unpruned.num_leaves()
        );
    }

    #[test]
    fn structure_accessors_are_consistent() {
        let mut tree = J48::new();
        assert_eq!(tree.num_leaves(), 0);
        tree.fit(&and_data()).expect("fit");
        // A binary tree: leaves = inner + 1.
        assert_eq!(tree.num_leaves(), tree.num_internal_nodes() + 1);
        assert!(tree.depth() <= 40);
    }

    #[test]
    fn pessimistic_error_grows_with_uncertainty() {
        // Same error rate, smaller sample -> larger pessimistic rate.
        let small = pessimistic_errors(1, 10, 0.69) / 10.0;
        let large = pessimistic_errors(10, 100, 0.69) / 100.0;
        assert!(small > large);
        assert_eq!(pessimistic_errors(0, 0, 0.69), 0.0);
    }

    #[test]
    fn multiclass_works() {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into(), "c".into()])
            .expect("schema");
        for i in 0..30 {
            d.push(vec![i as f64], i / 10).expect("row");
        }
        let mut tree = J48::new();
        tree.fit(&d).expect("fit");
        assert_eq!(tree.predict(&[5.0]), 0);
        assert_eq!(tree.predict(&[15.0]), 1);
        assert_eq!(tree.predict(&[25.0]), 2);
    }

    #[test]
    fn rejects_untrainable() {
        let d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        assert!(J48::new().fit(&d).is_err());
    }
}
