//! A leveled structured logger for headless runs.
//!
//! Every line is one event on stderr, either `key=value` text (default)
//!
//! ```text
//! ts=1754500000123 level=warn event=slow_query trace_id=281479271677953 video="cam-3" total_ms=412
//! ```
//!
//! or a JSON object per line after [`set_json`]`(true)`:
//!
//! ```text
//! {"ts":1754500000123,"level":"warn","event":"slow_query","trace_id":"281479271677953",...}
//! ```
//!
//! Both shapes are grep- and machine-parseable, which is the point: the
//! retile daemon's errors, recovery reports, and the slow-query log all
//! flow through here instead of ad-hoc `println!`s. Lines below the
//! global level ([`set_level`], default [`Level::Info`]) are dropped
//! before any formatting work.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Diagnostic chatter, off by default.
    Debug = 0,
    /// Normal lifecycle events.
    Info = 1,
    /// Something degraded but the process continues (slow queries,
    /// failed retiles).
    Warn = 2,
    /// An operation failed.
    Error = 3,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static JSON: AtomicBool = AtomicBool::new(false);

/// Sets the minimum level that reaches stderr.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Switches between `key=value` text lines (false, the default) and JSON
/// lines (true).
pub fn set_json(json: bool) {
    JSON.store(json, Ordering::Relaxed);
}

/// Whether a line at `level` would currently be emitted.
pub fn level_enabled(level: Level) -> bool {
    level as u8 >= LEVEL.load(Ordering::Relaxed)
}

/// Emits one structured event. `fields` are appended in order after the
/// timestamp, level, and event name.
pub fn log(level: Level, event: &str, fields: &[(&str, String)]) {
    if !level_enabled(level) {
        return;
    }
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let line = render(level, event, fields, ts, JSON.load(Ordering::Relaxed));
    // One write_all per line, newline included, keeps concurrent loggers
    // from interleaving inside a line (stderr is unbuffered; the lock
    // covers the call).
    let stderr = std::io::stderr();
    let _ = stderr.lock().write_all(line.as_bytes());
}

/// One event as the line [`log`] writes, its newline included.
fn render(level: Level, event: &str, fields: &[(&str, String)], ts: u128, json: bool) -> String {
    let mut line = if json {
        let mut line = format!(
            "{{\"ts\":{ts},\"level\":\"{}\",\"event\":\"{}\"",
            level.name(),
            json_escape(event)
        );
        for (k, v) in fields {
            line.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        line.push('}');
        line
    } else {
        let mut line = format!("ts={ts} level={} event={}", level.name(), event);
        for (k, v) in fields {
            if v.chars()
                .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\')
                && !v.is_empty()
            {
                line.push_str(&format!(" {k}={v}"));
            } else {
                line.push_str(&format!(
                    " {k}=\"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                ));
            }
        }
        line
    };
    line.push('\n');
    line
}

/// [`log`] at [`Level::Debug`].
pub fn debug(event: &str, fields: &[(&str, String)]) {
    log(Level::Debug, event, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(event: &str, fields: &[(&str, String)]) {
    log(Level::Info, event, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(event: &str, fields: &[(&str, String)]) {
    log(Level::Warn, event, fields);
}

/// [`log`] at [`Level::Error`].
pub fn error(event: &str, fields: &[(&str, String)]) {
    log(Level::Error, event, fields);
}

/// Escapes a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_gate_emission() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        // Default level is Info.
        assert!(level_enabled(Level::Info));
        assert!(level_enabled(Level::Error));
        assert!(!level_enabled(Level::Debug));
    }

    #[test]
    fn json_escaping_covers_control_and_quote_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn a_rendered_line_ends_in_exactly_one_newline() {
        let fields = [("video", "cam 3".to_string()), ("ms", "412".to_string())];
        for json in [false, true] {
            let line = render(Level::Warn, "slow_query", &fields, 1, json);
            assert!(line.ends_with('\n') && !line.ends_with("\n\n"), "{line:?}");
            assert_eq!(line.matches('\n').count(), 1, "{line:?}");
        }
    }
}
