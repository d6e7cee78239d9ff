//! Job-level robustness primitives: the typed error of a panicked pool job,
//! and the cancellation token the batch runner checks as it claims a job.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why a pool job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's closure panicked; the payload message is preserved. The
    /// panic is confined to the job — sibling jobs and the pool itself
    /// keep running.
    Panicked(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A shared cancellation flag. Cloning is cheap (one `Arc`); cancelling
/// through any clone is visible to all. The batch runner checks the token
/// when a job is claimed: already-running jobs finish (work here is not
/// preemptible), not-yet-started jobs fail as cancelled. Long-running
/// jobs may poll [`CancelToken::is_cancelled`] themselves to bail out
/// cooperatively.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation of every job carrying this token.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled() && !u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
    }

    #[test]
    fn job_error_displays_reason() {
        assert_eq!(JobError::Panicked("boom".into()).to_string(), "job panicked: boom");
    }
}
