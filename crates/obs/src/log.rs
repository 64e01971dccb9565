//! The leveled structured logger.
//!
//! One log record is one line of compact JSON:
//!
//! ```json
//! {"seq":7,"ts_ms":152,"level":"info","component":"serve","event":"listening","endpoint":"unix:/tmp/hfs.sock"}
//! ```
//!
//! `seq` is a per-logger monotonic sequence (strictly increasing in the
//! order lines reach the sink — sequence assignment and the write
//! happen under one lock), `ts_ms` is milliseconds since the logger was
//! created (monotonic clock, never wall time), `component` names the
//! subsystem (`serve`, `harness`, `client`, `net`, …) and `event` is a
//! stable machine-matchable tag. Additional fields are typed via
//! [`Value`]. The line is written through [`hfs_sim::json::Writer`] into
//! a buffer the logger keeps, and emitted with a single `write_all`, so
//! lines from concurrent threads never interleave.
//!
//! The process logger ([`logger`]) is configured once from the
//! environment: `HFS_LOG=error|warn|info|debug` selects the level
//! (default `info`; anything unrecognized falls back to `info`), and
//! `HFS_LOG_FILE=<path>` redirects output from stderr to an append-mode
//! file. Tests build private [`Logger`] instances over a [`BufferSink`]
//! and assert on parsed fields, never on raw stderr text.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use hfs_sim::json::{Sink as _, Writer};

/// Level environment variable (`HFS_LOG=error|warn|info|debug`).
pub const ENV_LOG: &str = "HFS_LOG";
/// Log-destination environment variable (`HFS_LOG_FILE=<path>`).
pub const ENV_LOG_FILE: &str = "HFS_LOG_FILE";

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures that lose work or break a connection.
    Error,
    /// Recoverable anomalies worth surfacing.
    Warn,
    /// Normal operational milestones (startup, drain, job progress).
    Info,
    /// Per-connection / per-event chatter for debugging.
    Debug,
}

impl Level {
    /// The level's lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a level name (case-insensitive); `None` on unknown input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_env() -> Level {
        std::env::var(ENV_LOG)
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Info)
    }
}

/// A typed structured-field value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string field (JSON-escaped on emission).
    Str(String),
    /// An unsigned integer field.
    U64(u64),
    /// A boolean field.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// A cloneable in-memory sink for tests: collects everything written,
/// readable back via [`BufferSink::contents`].
#[derive(Debug, Clone, Default)]
pub struct BufferSink(Arc<Mutex<Vec<u8>>>);

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// Everything written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("log lines are UTF-8")
    }
}

impl Write for BufferSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Sink {
    seq: u64,
    writer: Box<dyn Write + Send>,
    /// The line being written, kept so a record allocates nothing once
    /// the buffer has grown to the longest line.
    line: String,
}

/// A leveled JSON-lines logger. See the [module docs](self) for the
/// line format and concurrency guarantees.
pub struct Logger {
    level: Level,
    epoch: Instant,
    sink: Mutex<Sink>,
    dropped: AtomicU64,
}

impl Logger {
    /// A logger writing to an explicit sink — the test constructor.
    pub fn with_sink(level: Level, writer: Box<dyn Write + Send>) -> Logger {
        Logger {
            level,
            epoch: Instant::now(),
            sink: Mutex::new(Sink {
                seq: 0,
                writer,
                line: String::new(),
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// The production configuration: level from `HFS_LOG` (default
    /// `info`), destination from `HFS_LOG_FILE` (append mode; falls
    /// back to stderr if the file cannot be opened, and on no setting).
    pub fn from_env() -> Logger {
        let level = Level::from_env();
        let writer: Box<dyn Write + Send> = match hfs_sim::env_path(ENV_LOG_FILE).and_then(|p| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(p)
                .ok()
        }) {
            Some(f) => Box::new(f),
            None => Box::new(std::io::stderr()),
        };
        Logger::with_sink(level, writer)
    }

    /// Whether records at `level` would be emitted.
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    /// Lines that failed to reach the sink (I/O errors only — level
    /// filtering does not count as dropping).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Emits one record. `component` names the subsystem, `event` is a
    /// stable tag, and `fields` are appended in order after the
    /// standard `seq`/`ts_ms`/`level`/`component`/`event` prefix.
    pub fn log(&self, level: Level, component: &str, event: &str, fields: &[(&str, Value)]) {
        if !self.enabled(level) {
            return;
        }
        let ts_ms = self.epoch.elapsed().as_millis() as u64;
        // Sequence assignment and the write share one critical section,
        // so sequences are strictly increasing in sink order and lines
        // never interleave.
        let mut sink = self.sink.lock().unwrap();
        sink.seq += 1;
        let Sink { seq, writer, line } = &mut *sink;
        line.clear();
        let mut w = Writer::new(line, false);
        w.begin_obj();
        w.u64_field("seq", *seq);
        w.u64_field("ts_ms", ts_ms);
        w.str_field("level", level.name());
        w.str_field("component", component);
        w.str_field("event", event);
        for (k, v) in fields {
            match v {
                Value::Str(s) => w.str_field(k, s),
                Value::U64(n) => w.u64_field(k, *n),
                Value::Bool(b) => w.bool_field(k, *b),
            }
        }
        w.end_obj();
        line.push('\n');
        let ok = writer.write_all(line.as_bytes()).is_ok() && writer.flush().is_ok();
        drop(sink);
        if !ok {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`Logger::log`] at [`Level::Error`].
    pub fn error(&self, component: &str, event: &str, fields: &[(&str, Value)]) {
        self.log(Level::Error, component, event, fields);
    }

    /// [`Logger::log`] at [`Level::Warn`].
    pub fn warn(&self, component: &str, event: &str, fields: &[(&str, Value)]) {
        self.log(Level::Warn, component, event, fields);
    }

    /// [`Logger::log`] at [`Level::Info`].
    pub fn info(&self, component: &str, event: &str, fields: &[(&str, Value)]) {
        self.log(Level::Info, component, event, fields);
    }

    /// [`Logger::log`] at [`Level::Debug`].
    pub fn debug(&self, component: &str, event: &str, fields: &[(&str, Value)]) {
        self.log(Level::Debug, component, event, fields);
    }
}

/// The process logger, configured from the environment on first use.
pub fn logger() -> &'static Logger {
    static GLOBAL: OnceLock<Logger> = OnceLock::new();
    GLOBAL.get_or_init(Logger::from_env)
}

/// Logs at error level on the process logger.
pub fn error(component: &str, event: &str, fields: &[(&str, Value)]) {
    logger().error(component, event, fields);
}

/// Logs at warn level on the process logger.
pub fn warn(component: &str, event: &str, fields: &[(&str, Value)]) {
    logger().warn(component, event, fields);
}

/// Logs at info level on the process logger.
pub fn info(component: &str, event: &str, fields: &[(&str, Value)]) {
    logger().info(component, event, fields);
}

/// Logs at debug level on the process logger.
pub fn debug(component: &str, event: &str, fields: &[(&str, Value)]) {
    logger().debug(component, event, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(sink: &BufferSink) -> Vec<String> {
        sink.contents()
            .lines()
            .map(str::to_string)
            .collect::<Vec<_>>()
    }

    #[test]
    fn level_ordering_and_parse() {
        assert!(Level::Error < Level::Debug);
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn records_below_level_are_suppressed() {
        let sink = BufferSink::new();
        let log = Logger::with_sink(Level::Error, Box::new(sink.clone()));
        log.info("serve", "connection_accepted", &[("conn", Value::U64(1))]);
        log.debug("serve", "noise", &[]);
        assert!(sink.contents().is_empty(), "HFS_LOG=error silences info");
        log.error("serve", "accept_failed", &[("error", "boom".into())]);
        let l = lines(&sink);
        assert_eq!(l.len(), 1);
        assert!(l[0].contains("\"event\":\"accept_failed\""));
        assert!(l[0].contains("\"seq\":1"));
    }

    #[test]
    fn fields_serialize_typed_and_escaped() {
        let sink = BufferSink::new();
        let log = Logger::with_sink(Level::Debug, Box::new(sink.clone()));
        log.info(
            "test",
            "kinds",
            &[
                ("s", Value::Str("a\"b\\c\nd".into())),
                ("u", Value::U64(7)),
                ("t", Value::Bool(true)),
            ],
        );
        let l = lines(&sink);
        assert_eq!(l.len(), 1);
        assert!(l[0].contains("\"s\":\"a\\\"b\\\\c\\nd\""));
        assert!(l[0].contains("\"u\":7"));
        assert!(l[0].contains("\"t\":true"));
    }

    /// One record's exact bytes, with `ts_ms` (wall time) masked: a
    /// quote, a backslash, a newline, control bytes and non-ASCII text.
    #[test]
    fn a_record_has_exact_bytes() {
        let sink = BufferSink::new();
        let log = Logger::with_sink(Level::Debug, Box::new(sink.clone()));
        log.warn(
            "serve",
            "odd \"input\"",
            &[
                ("path", "C:\\tmp\\a b".into()),
                ("text", "line one\nline two\r\tend".into()),
                ("ctl", "bell\u{7}esc\u{1b}del\u{7f}".into()),
                ("name", "naïve — ü ✓".into()),
                ("n", 42u64.into()),
                ("ok", false.into()),
            ],
        );
        let line = sink.contents();
        let (head, rest) = line.split_once(",\"ts_ms\":").expect("a ts_ms field");
        let masked = format!(
            "{head},\"ts_ms\":_{}",
            rest.trim_start_matches(|c: char| c.is_ascii_digit())
        );
        let want = concat!(
            r#"{"seq":1,"ts_ms":_,"level":"warn","component":"serve","event":"odd \"input\"","#,
            r#""path":"C:\\tmp\\a b","text":"line one\nline two\r\tend","#,
            r#""ctl":"bell\u0007esc\u001bdel"#,
            "\u{7f}",
            r#"","name":"naïve — ü ✓","n":42,"ok":false}"#,
            "\n"
        );
        assert_eq!(masked, want);
    }

    #[test]
    fn sequences_are_strict_in_sink_order() {
        let sink = BufferSink::new();
        let log = std::sync::Arc::new(Logger::with_sink(Level::Debug, Box::new(sink.clone())));
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = std::sync::Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..50 {
                        log.info(
                            "test",
                            "tick",
                            &[("t", Value::U64(t)), ("i", Value::U64(i))],
                        );
                    }
                });
            }
        });
        let l = lines(&sink);
        assert_eq!(l.len(), 200);
        let mut last = 0u64;
        for line in &l {
            let seq: u64 = line
                .strip_prefix("{\"seq\":")
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.parse().ok())
                .expect("line starts with a seq");
            assert!(seq > last, "sequences strictly increase in sink order");
            last = seq;
        }
        assert_eq!(log.dropped(), 0);
    }
}
