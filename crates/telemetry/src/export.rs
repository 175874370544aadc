//! Exporters: Chrome-trace JSON (loadable in `chrome://tracing` or
//! `ui.perfetto.dev`) and the Prometheus text exposition — the one
//! registry dump format (`--metrics PATH`).
//!
//! ## Chrome-trace lane mapping
//!
//! * `pid 1` — "qcf host": one `tid` per worker thread (span lane ids from
//!   [`crate::span::lane_id`]), events are the recorded [`SpanEvent`]s.
//! * `pid 2` — "qcf streams": one `tid` per simulated GPU [`StreamLane`],
//!   events sourced from the stream's `KernelEvent` log with the virtual
//!   clock scaled to microseconds.
//!
//! All events use the `"X"` (complete) phase with `ts`/`dur` in
//! microseconds; `"M"` metadata events name the processes and threads.

use crate::metrics::Snapshot;
use crate::span::SpanEvent;
use std::fmt::Write as _;

/// One event on a simulated GPU stream's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneEvent {
    /// Kernel or transfer name.
    pub name: String,
    /// Category rendered in the trace (e.g. `kernel`).
    pub cat: String,
    /// Start, microseconds of virtual stream time.
    pub start_us: u64,
    /// Duration in microseconds (clamped to ≥ 1 so zero-cost events stay
    /// visible).
    pub dur_us: u64,
    /// Bytes moved by the event (shown in the args pane).
    pub bytes: usize,
}

/// A named virtual lane: one simulated `Stream`'s event log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamLane {
    /// Lane label, e.g. `A100 stream 0`.
    pub name: String,
    /// Events in submission order.
    pub events: Vec<LaneEvent>,
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

const HOST_PID: u32 = 1;
const STREAM_PID: u32 = 2;

fn push_meta(out: &mut String, pid: u32, tid: u32, key: &str, name: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{key}\",\"args\":{{\"name\":\""
    );
    escape_into(out, name);
    out.push_str("\"}}");
}

/// Renders spans plus stream lanes as a Chrome-trace JSON document.
pub fn chrome_trace(spans: &[SpanEvent], lanes: &[StreamLane]) -> String {
    let mut out = String::with_capacity(256 + spans.len() * 96 + lanes.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };

    sep(&mut out);
    push_meta(&mut out, HOST_PID, 0, "process_name", "qcf host");
    let mut host_lanes: Vec<u32> = spans.iter().map(|e| e.lane).collect();
    host_lanes.sort_unstable();
    host_lanes.dedup();
    for &lane in &host_lanes {
        sep(&mut out);
        push_meta(
            &mut out,
            HOST_PID,
            lane,
            "thread_name",
            &format!("worker {lane}"),
        );
    }
    for e in spans {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"",
            HOST_PID,
            e.lane,
            e.start_us,
            e.dur_us.max(1),
            e.cat
        );
        escape_into(&mut out, e.name);
        let _ = write!(&mut out, "\",\"args\":{{\"depth\":{}}}}}", e.depth);
    }

    if !lanes.is_empty() {
        sep(&mut out);
        push_meta(&mut out, STREAM_PID, 0, "process_name", "qcf streams");
    }
    for (tid, lane) in lanes.iter().enumerate() {
        let tid = tid as u32;
        sep(&mut out);
        push_meta(&mut out, STREAM_PID, tid, "thread_name", &lane.name);
        for e in &lane.events {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"",
                STREAM_PID,
                tid,
                e.start_us,
                e.dur_us.max(1)
            );
            escape_into(&mut out, &e.cat);
            out.push_str("\",\"name\":\"");
            escape_into(&mut out, &e.name);
            let _ = write!(&mut out, "\",\"args\":{{\"bytes\":{}}}}}", e.bytes);
        }
    }

    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Maps a registry metric name onto the Prometheus charset: `qcf_` prefix,
/// every byte outside `[a-zA-Z0-9_:]` replaced with `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("qcf_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v.is_sign_positive() {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders a registry snapshot as Prometheus text exposition (version
/// 0.0.4): counters and gauges as single samples (gauge high-water marks
/// as a separate `<name>_high_water` gauge), histograms as cumulative
/// `<name>_bucket{le="..."}` series closed by `le="+Inf"`, plus `_sum` and
/// `_count`. Metric names are mapped via [`prometheus_name`]. The output
/// round-trips through [`validate_prometheus`]. This is what `--metrics
/// PATH` writes and what `qcfz top` checks its live frame against.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(1024);
    for (name, value) in &snap.counters {
        let p = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {p} counter");
        let _ = writeln!(out, "{p} {value}");
    }
    for (name, (value, high)) in &snap.gauges {
        let p = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {p} gauge");
        let _ = writeln!(out, "{p} {value}");
        let _ = writeln!(out, "# TYPE {p}_high_water gauge");
        let _ = writeln!(out, "{p}_high_water {high}");
    }
    for (name, value) in &snap.float_gauges {
        let p = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {p} gauge");
        let _ = writeln!(out, "{p} {}", prom_num(*value));
    }
    for (name, h) in &snap.histograms {
        let p = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {p} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(
                out,
                "{p}_bucket{{le=\"{}\"}} {cumulative}",
                prom_num(*bound)
            );
        }
        let _ = writeln!(out, "{p}_sum {}", prom_num(h.sum));
        // `_count` from the bucket sum, not `h.count`: a snapshot racing a
        // concurrent observe can skew the two by one, and the exposition
        // must stay self-consistent (`+Inf` bucket == `_count`).
        let _ = writeln!(out, "{p}_count {cumulative}");
    }
    out
}

/// What [`validate_prometheus`] counted while parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PromStats {
    /// Sample lines parsed.
    pub samples: usize,
    /// `# TYPE` declarations seen.
    pub types: usize,
    /// Histograms fully checked (buckets cumulative, `+Inf` == `_count`).
    pub histograms: usize,
}

/// Per-histogram validation state: buckets seen in order, the `+Inf`
/// bucket's count, and the `_count` sample.
type HistState = (Vec<u64>, Option<u64>, Option<u64>);

/// Hand-rolled Prometheus text-format parser/validator (this workspace
/// takes no dependencies). Checks, line by line: comment lines are `# TYPE
/// <name> <counter|gauge|histogram|summary|untyped>` or `# HELP …`; sample
/// lines are `<name>[{labels}] <value>` with a legal metric name, balanced
/// quoted labels, and a parsable value. For every declared histogram it
/// additionally requires at least one `_bucket` sample with an `le` label,
/// cumulative bucket counts that never decrease, a closing `le="+Inf"`
/// bucket, and agreement between that bucket and `_count`.
pub fn validate_prometheus(text: &str) -> Result<PromStats, String> {
    let mut stats = PromStats::default();
    let mut declared: Vec<(String, String)> = Vec::new(); // (name, type)
    let mut hist_state: std::collections::BTreeMap<String, HistState> =
        std::collections::BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 1);
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().ok_or_else(|| err("TYPE without name"))?;
                let ty = parts.next().ok_or_else(|| err("TYPE without type"))?;
                if parts.next().is_some() {
                    return Err(err("trailing tokens after TYPE"));
                }
                if !matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err("unknown metric type"));
                }
                validate_prom_name(name).map_err(|m| err(&m))?;
                declared.push((name.to_string(), ty.to_string()));
                if ty == "histogram" {
                    hist_state.insert(name.to_string(), (Vec::new(), None, None));
                }
                stats.types += 1;
                continue;
            }
            if rest.starts_with("HELP ") {
                continue;
            }
            continue; // bare comment
        }

        // Sample line: name[{labels}] value [timestamp]
        let (name, after_name) = split_prom_name(line).map_err(|m| err(&m))?;
        let (labels, after_labels) = if after_name.starts_with('{') {
            parse_prom_labels(after_name).map_err(|m| err(&m))?
        } else {
            (Vec::new(), after_name)
        };
        let mut tokens = after_labels.split_whitespace();
        let value_tok = tokens.next().ok_or_else(|| err("sample without value"))?;
        let value = parse_prom_value(value_tok).map_err(|m| err(&m))?;
        if let Some(ts) = tokens.next() {
            if ts.parse::<i64>().is_err() {
                return Err(err("bad timestamp"));
            }
        }
        if tokens.next().is_some() {
            return Err(err("trailing tokens after sample"));
        }
        stats.samples += 1;

        // Histogram series bookkeeping keyed by the declared base name.
        if let Some(base) = name.strip_suffix("_bucket") {
            if let Some((buckets, inf, _)) = hist_state.get_mut(base) {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| err("histogram bucket without le label"))?;
                if !value.is_finite() || value < 0.0 || value.fract() != 0.0 {
                    return Err(err("bucket count must be a non-negative integer"));
                }
                let count = value as u64;
                if let Some(&prev) = buckets.last() {
                    if count < prev {
                        return Err(err("bucket counts must be cumulative"));
                    }
                }
                buckets.push(count);
                if le == "+Inf" {
                    *inf = Some(count);
                }
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Some((_, _, count)) = hist_state.get_mut(base) {
                *count = Some(value as u64);
            }
        }
    }

    for (name, (buckets, inf, count)) in &hist_state {
        if buckets.is_empty() {
            return Err(format!("histogram {name} has no _bucket samples"));
        }
        let inf = inf.ok_or_else(|| format!("histogram {name} missing le=\"+Inf\" bucket"))?;
        let count = count.ok_or_else(|| format!("histogram {name} missing _count"))?;
        if inf != count {
            return Err(format!(
                "histogram {name}: +Inf bucket {inf} != _count {count}"
            ));
        }
        stats.histograms += 1;
    }
    Ok(stats)
}

fn validate_prom_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return Err(format!("bad metric name start in {name:?}")),
    }
    if chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        Ok(())
    } else {
        Err(format!("bad metric name char in {name:?}"))
    }
}

fn split_prom_name(line: &str) -> Result<(&str, &str), String> {
    let end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let (name, rest) = line.split_at(end);
    validate_prom_name(name)?;
    Ok((name, rest))
}

#[allow(clippy::type_complexity)]
fn parse_prom_labels(s: &str) -> Result<(Vec<(String, String)>, &str), String> {
    let mut labels = Vec::new();
    let bytes = s.as_bytes();
    let mut pos = 1; // '{'
    loop {
        while pos < bytes.len() && bytes[pos] == b' ' {
            pos += 1;
        }
        if pos < bytes.len() && bytes[pos] == b'}' {
            return Ok((labels, &s[pos + 1..]));
        }
        let key_start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        if pos >= bytes.len() {
            return Err("unterminated label".into());
        }
        let key = s[key_start..pos].trim().to_string();
        validate_prom_name(&key)?;
        pos += 1; // '='
        if pos >= bytes.len() || bytes[pos] != b'"' {
            return Err("label value must be quoted".into());
        }
        pos += 1;
        let mut value = String::new();
        loop {
            match bytes.get(pos) {
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'"') => value.push('"'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad escape in label value".into()),
                    }
                    pos += 2;
                }
                Some(&c) => {
                    value.push(c as char);
                    pos += 1;
                }
                None => return Err("unterminated label value".into()),
            }
        }
        labels.push((key, value));
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {
                return Ok((labels, &s[pos + 1..]));
            }
            _ => return Err("expected ',' or '}' after label".into()),
        }
    }
}

fn parse_prom_value(tok: &str) -> Result<f64, String> {
    match tok {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => tok
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {tok:?}")),
    }
}

/// Minimal structural JSON validator (no std JSON parser in this
/// dependency-free workspace): checks the document parses as one JSON
/// value with balanced structure and valid tokens. Used by tests to
/// assert the exporters emit well-formed output.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if *pos >= b.len() {
        return Err("unexpected end of input".into());
    }
    match b[*pos] {
        b'{' => parse_object(b, pos),
        b'[' => parse_array(b, pos),
        b'"' => parse_string(b, pos),
        b't' => parse_lit(b, pos, "true"),
        b'f' => parse_lit(b, pos, "false"),
        b'n' => parse_lit(b, pos, "null"),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        c => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == b'}' {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if *pos >= b.len() || b[*pos] != b':' {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == b']' {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if *pos >= b.len() || b[*pos] != b'"' {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if *pos + 4 >= b.len()
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {}", *pos));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b[*pos] == b'-' {
        *pos += 1;
    }
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos < b.len() && b[*pos] == b'.' {
        *pos += 1;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if *pos < b.len() && matches!(b[*pos], b'e' | b'E') {
        *pos += 1;
        if *pos < b.len() && matches!(b[*pos], b'+' | b'-') {
            *pos += 1;
        }
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if *pos == start || (*pos == start + 1 && b[start] == b'-') {
        return Err(format!("bad number at byte {start}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HistogramSnapshot, Snapshot};

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("gpu.kernel.launches".into(), 42);
        snap.gauges
            .insert("contract.live_bytes".into(), (0, 1 << 20));
        snap.float_gauges.insert("compressor.qoz.cr".into(), 17.25);
        snap.histograms.insert(
            "stage.dedup.ratio".into(),
            HistogramSnapshot {
                count: 3,
                dropped: 1,
                sum: 1.5,
                mean: 0.5,
                buckets: vec![(0.5, 2), (1.0, 1), (f64::INFINITY, 0)],
            },
        );
        snap
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lanes() {
        let spans = vec![
            SpanEvent {
                name: "contract.network",
                cat: "contract",
                lane: 0,
                start_us: 0,
                dur_us: 100,
                depth: 0,
            },
            SpanEvent {
                name: "stage.dedup",
                cat: "stage",
                lane: 1,
                start_us: 10,
                dur_us: 20,
                depth: 1,
            },
        ];
        let lanes = vec![StreamLane {
            name: "A100 stream 0".into(),
            events: vec![LaneEvent {
                name: "gemm".into(),
                cat: "kernel".into(),
                start_us: 0,
                dur_us: 33,
                bytes: 4096,
            }],
        }];
        let doc = chrome_trace(&spans, &lanes);
        validate_json(&doc).expect("chrome trace must be valid JSON");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("contract.network"));
        assert!(doc.contains("A100 stream 0"));
        assert!(doc.contains("\"pid\":2"));
    }

    #[test]
    fn chrome_trace_empty_inputs() {
        let doc = chrome_trace(&[], &[]);
        validate_json(&doc).expect("empty trace still valid");
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        let spans = vec![SpanEvent {
            name: "weird",
            cat: "weird",
            lane: 0,
            start_us: 0,
            dur_us: 1,
            depth: 0,
        }];
        let lanes = vec![StreamLane {
            name: "na\"me\\with\nstuff".into(),
            events: vec![],
        }];
        let doc = chrome_trace(&spans, &lanes);
        validate_json(&doc).expect("escaped trace valid");
    }

    #[test]
    fn prometheus_text_is_valid_and_complete() {
        let text = prometheus_text(&sample_snapshot());
        let stats = validate_prometheus(&text).expect("exposition must validate");
        // counter + gauge + gauge high-water + float gauge + histogram
        assert_eq!(stats.types, 5, "{text}");
        assert_eq!(stats.histograms, 1);
        assert!(text.contains("# TYPE qcf_gpu_kernel_launches counter"));
        assert!(text.contains("qcf_gpu_kernel_launches 42"));
        assert!(text.contains("qcf_contract_live_bytes_high_water 1048576"));
        assert!(text.contains("qcf_compressor_qoz_cr 17.25"));
        // Histogram buckets are cumulative and closed by +Inf == _count.
        assert!(text.contains("qcf_stage_dedup_ratio_bucket{le=\"0.5\"} 2"));
        assert!(text.contains("qcf_stage_dedup_ratio_bucket{le=\"1\"} 3"));
        assert!(text.contains("qcf_stage_dedup_ratio_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("qcf_stage_dedup_ratio_count 3"));
    }

    #[test]
    fn prometheus_name_sanitizes() {
        assert_eq!(prometheus_name("state.cache.hit"), "qcf_state_cache_hit");
        assert_eq!(
            prometheus_name("compressor.QCF-ratio.cr"),
            "qcf_compressor_QCF_ratio_cr"
        );
    }

    #[test]
    fn prometheus_validator_rejects_malformed() {
        assert!(validate_prometheus("# TYPE x bogus\n").is_err());
        assert!(validate_prometheus("9bad_name 1\n").is_err());
        assert!(validate_prometheus("x \n").is_err(), "missing value");
        assert!(validate_prometheus("x notanumber\n").is_err());
        assert!(
            validate_prometheus("x{le=\"1\" 1\n").is_err(),
            "unclosed labels"
        );
        // Histogram with decreasing buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(validate_prometheus(bad).is_err());
        // Histogram whose +Inf disagrees with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n";
        assert!(validate_prometheus(bad).is_err());
        // Histogram with no +Inf bucket.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_sum 1\nh_count 3\n";
        assert!(validate_prometheus(bad).is_err());
        // A correct tiny document passes.
        let ok = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 5\nh_count 3\n";
        let stats = validate_prometheus(ok).unwrap();
        assert_eq!(stats.histograms, 1);
        assert_eq!(stats.samples, 4);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,2,]").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("{\"a\":1}").is_ok());
        assert!(validate_json("[1,-2.5e3,\"x\",true,null]").is_ok());
    }
}
