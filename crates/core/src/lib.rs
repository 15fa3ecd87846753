//! # sickle-core
//!
//! The core of the Sickle analytical SQL synthesizer (PLDI 2022
//! reproduction): query AST, the unified execution engine behind the three
//! semantics (standard, provenance-tracking, abstract provenance), and the
//! abstraction-based enumerative synthesis algorithm.
//!
//! ## Crate map
//!
//! * [`Query`] / [`PQuery`] (`ast`) — the Fig. 7 language and partial
//!   queries with holes;
//! * [`exec`] / [`ExecTable`] (`engine`) — the shared columnar operator
//!   pipeline. Every operator (`group`, `partition`, `arithmetic`,
//!   `filter`, `sort`, joins) has *one* kernel; an [`ExecTable`] carries
//!   the concrete values plus optional provenance-term and
//!   abstract-ref-set side-channels, selected by [`Semantics`]. [`exec`]
//!   is the plain recursive walk over the kernels, [`exec_step`] applies
//!   one operator;
//! * [`evaluate`] (`eval`) — standard semantics `[[q(T̄)]]`, the values
//!   channel of the pipeline;
//! * [`prov_evaluate`] (`prov_eval`) — provenance-tracking semantics
//!   `[[q(T̄)]]★` (Fig. 9), the star channel;
//! * [`abstract_evaluate`] / [`abstract_consistent`] (`abstract_eval`) —
//!   abstract provenance `[[q(T̄)]]◦` and the Def. 3 check (Fig. 11);
//!   concrete leaves run through the pipeline's ref-set channel;
//! * [`EvalCache`] — the memoizing caller of the same kernels, keyed by
//!   `(query, semantics)` and threaded through the search so sibling
//!   partial queries share inner-subquery evaluations (and sibling
//!   `group`/`partition` candidates share row partitions and key
//!   columns). Eviction is governed by a [`CachePolicy`]: cost-aware sweeps (victims ranked by coldness, then
//!   recompute cost) with hysteresis, demoting cold expensive entries —
//!   typically join children — by spilling their derived reference-set
//!   channels instead of dropping them ([`CacheStats`] counts the churn);
//! * [`Session`] / [`SynthRequest`] / [`SolutionStream`] (`session`) — the
//!   public front door: a warm, reusable service instance running
//!   Algorithm 1 sequentially or with skeleton expansion fanned out over
//!   worker threads, blocking or streaming, with validated requests,
//!   [`Budget`]s, [`CancelToken`]s and the unified [`SickleError`];
//! * [`Analyzer`] (`synth`) — the pruning interface the search is
//!   parameterized by ([`ProvenanceAnalyzer`] is the paper's; baselines
//!   live in `sickle-baselines`), and [`SearchStats`], the run's counters.
//!
//! # Examples
//!
//! Synthesizing "sum Enrolled per City" from a two-row demonstration:
//!
//! ```
//! use sickle_core::{Budget, Session, SynthRequest};
//! use sickle_provenance::Demo;
//! use sickle_table::Table;
//!
//! let t = Table::new(
//!     ["City", "Enrolled"],
//!     vec![
//!         vec!["A".into(), 10.into()],
//!         vec!["A".into(), 20.into()],
//!         vec!["B".into(), 5.into()],
//!     ],
//! )?;
//! let demo = Demo::parse(&[
//!     &["T[1,1]", "sum(T[1,2], T[2,2])"],
//!     &["T[3,1]", "sum(T[3,2])"],
//! ])?;
//! let session = Session::new();
//! let request = SynthRequest::new(vec![t], demo).with_max_depth(1);
//! let result = session.solve(&request)?;
//! assert!(!result.solutions.is_empty());
//! # let _ = Budget::default();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod abstract_eval;
mod ast;
mod engine;
mod error;
mod eval;
mod prov_eval;
mod session;
mod session_pool;
mod synth;

pub use abstract_eval::{
    abstract_consistent, abstract_evaluate, abstract_evaluate_rc, demo_ref_sets, AbsTable,
};
pub use ast::{PQuery, Pred, Query};
pub use engine::{exec, exec_step, CachePolicy, CacheStats, EvalCache, ExecTable, Semantics};
pub use error::SickleError;
pub use eval::{evaluate, EvalError};
pub use prov_eval::{concretize, expand_arith, prov_evaluate, ProvTable};
pub use session::{
    AnalyzerChoice, Budget, CancelToken, ProgressSnapshot, Session, SolutionEvent, SolutionStream,
    StreamWait, SynthRequest,
};
pub use session_pool::{demo_fingerprint, SessionPool, SessionPoolConfig};
pub use synth::{
    construct_skeletons, expand, Analyzer, JoinKey, NoPruneAnalyzer, OpKind, ProvenanceAnalyzer,
    SearchStats, SharedStats, SynthConfig, SynthResult, SynthTask, TaskContext, BULK_COL_ROWS,
};
