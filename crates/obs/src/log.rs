//! Leveled stderr logging for the pipeline.
//!
//! The level comes from the `CASYN_LOG` environment variable
//! (`error|warn|info|debug|trace`, default `warn`), read once on first
//! use. Emission is a single relaxed atomic compare on the fast path;
//! formatting only happens for records that will print.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-corrupting conditions.
    Error = 1,
    /// Suspicious conditions the run survives.
    Warn = 2,
    /// Stage-level progress.
    Info = 3,
    /// Per-stage detail (timings, counts).
    Debug = 4,
    /// Inner-loop detail; very verbose.
    Trace = 5,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }

    /// Parses a `CASYN_LOG`-style name, case-insensitively.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            "off" | "none" => None,
            _ => None,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

// 0 = uninitialized (read CASYN_LOG on first use)
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The current log level.
pub fn level() -> Level {
    let mut v = LEVEL.load(Ordering::Relaxed);
    if v == 0 {
        let env = std::env::var("CASYN_LOG").ok().and_then(|v| Level::parse(&v));
        v = env.unwrap_or(Level::Warn) as u8;
        LEVEL.store(v, Ordering::Relaxed);
    }
    Level::from_u8(v)
}

/// Whether a record at `l` would be emitted.
#[inline]
pub fn enabled(l: Level) -> bool {
    l <= level()
}

/// Emits `msg` to stderr when `l` is enabled. Prefer the level-named
/// helpers, which let the caller skip formatting entirely.
///
/// Each line carries elapsed milliseconds since the trace epoch and the
/// thread's track label (`main`, `w0`, …) so interleaved `--jobs N`
/// output stays attributable:
/// `[casyn INFO +12.3ms w1] stage route: start`.
pub fn emit(l: Level, msg: &str) {
    if enabled(l) {
        eprintln!(
            "[casyn {} +{:.1}ms {}] {}",
            l.tag(),
            crate::trace::elapsed_ms(),
            crate::trace::thread_label(),
            msg
        );
    }
}

/// Logs at [`Level::Error`].
pub fn error(msg: &str) {
    emit(Level::Error, msg)
}

/// Logs at [`Level::Warn`].
pub fn warn(msg: &str) {
    emit(Level::Warn, msg)
}

/// Logs at [`Level::Info`].
pub fn info(msg: &str) {
    emit(Level::Info, msg)
}

/// Logs at [`Level::Debug`].
pub fn debug(msg: &str) {
    emit(Level::Debug, msg)
}

/// Logs at [`Level::Trace`].
pub fn trace(msg: &str) {
    emit(Level::Trace, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse(" TRACE "), Some(Level::Trace));
        assert_eq!(Level::parse("Warning"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
        assert!(enabled(Level::Error));
    }
}
