//! Streaming edge mutations and the batch-validation error.
//!
//! An [`EdgeOp`] is the unit the dynamic-BC engines apply; a batch of
//! them is validated as a whole before any op commits, and the first
//! invalid op is reported as a [`BatchOpError`].

use crate::VertexId;

/// One streaming mutation of the edge set.
///
/// A batch of these is the unit of work for the dynamic-BC engines'
/// `apply_batch`, which validate the whole batch before committing any
/// op and then commit the ops in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Insert the undirected edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Remove the undirected edge `{u, v}`.
    Remove(VertexId, VertexId),
}

impl EdgeOp {
    /// The `(u, v)` endpoint pair as submitted.
    pub fn endpoints(self) -> (VertexId, VertexId) {
        match self {
            EdgeOp::Insert(u, v) | EdgeOp::Remove(u, v) => (u, v),
        }
    }

    /// True for [`EdgeOp::Insert`].
    pub fn is_insert(self) -> bool {
        matches!(self, EdgeOp::Insert(..))
    }
}

impl std::fmt::Display for EdgeOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeOp::Insert(u, v) => write!(f, "insert({u}, {v})"),
            EdgeOp::Remove(u, v) => write!(f, "remove({u}, {v})"),
        }
    }
}

/// Why a batch was rejected by the engines' batch validation (the plan
/// layer's `validate_batch` in `dynbc-bc`).
///
/// The display strings keep the phrases the single-op engines always
/// panicked with ("self-loop", "already present", "not present") so
/// batch-of-one callers see unchanged diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOpError {
    /// Index of the offending op within the submitted batch.
    pub index: usize,
    /// The offending op.
    pub op: EdgeOp,
    /// What was wrong with it.
    pub kind: BatchOpErrorKind,
}

/// The specific rejection reason of a [`BatchOpError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOpErrorKind {
    /// `u == v`.
    SelfLoop,
    /// Insertion of an edge the graph already has.
    AlreadyPresent,
    /// Removal of an edge the graph does not have.
    NotPresent,
    /// An endpoint is not a vertex of the graph.
    OutOfRange,
}

impl std::fmt::Display for BatchOpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match (self.kind, self.op.is_insert()) {
            (BatchOpErrorKind::SelfLoop, true) => "self-loop insertion",
            (BatchOpErrorKind::SelfLoop, false) => "self-loop removal",
            (BatchOpErrorKind::AlreadyPresent, _) => "edge already present",
            (BatchOpErrorKind::NotPresent, _) => "edge not present",
            (BatchOpErrorKind::OutOfRange, _) => "endpoint out of range",
        };
        write!(f, "batch op {} ({}): {what}", self.index, self.op)
    }
}

impl std::error::Error for BatchOpError {}
