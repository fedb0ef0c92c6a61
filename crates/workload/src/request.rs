//! Requests and traces.

use sp_metrics::{Dur, SimTime};

/// Quality-of-service class of a request (§2.1). Defined in `sp-metrics`
/// (so completed-request records carry it); re-exported here because the
/// workload crate is where requests are born.
pub use sp_metrics::RequestClass;

/// Latest arrival a trace line may carry, in seconds (about 11.6 days).
/// Reports bin throughput per second from the epoch, so every second of
/// arrival time costs a bin; a later arrival is far more likely a unit
/// error than a real trace, and one near `f64::MAX` would overflow the
/// bin vector.
pub const MAX_ARRIVAL_SECS: f64 = 1e6;

/// One inference request: a prompt of `input_tokens` arriving at `arrival`,
/// generating `output_tokens`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id within a trace.
    pub id: u64,
    /// When the client submits the request.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub input_tokens: u32,
    /// Output length in tokens (known a priori in replay, like the paper's
    /// trace-driven evaluation).
    pub output_tokens: u32,
    /// QoS class.
    pub class: RequestClass,
    /// Prompt tokens already present in a shared prefix cache (multi-turn
    /// conversations re-submitting their context). Engines with prefix
    /// caching enabled skip prefilling them.
    pub cached_prefix: u32,
    /// Identity of the shared prefix (e.g. a session id). Engines with
    /// prefix caching share the cached tokens' KV *memory* across
    /// requests of the same group instead of duplicating it.
    pub prefix_group: Option<u64>,
}

impl Request {
    /// Prompt + output tokens.
    pub fn total_tokens(&self) -> u64 {
        u64::from(self.input_tokens) + u64::from(self.output_tokens)
    }

    /// The instant by which this request's first token must be emitted to
    /// attain its class's TTFT target — the deadline SLO-aware admission
    /// and deadline-aware routing act on.
    pub fn ttft_deadline(&self, slo: &sp_metrics::ClassSlo) -> SimTime {
        slo.ttft_deadline(self.arrival, self.class)
    }

    /// Serializes the request as one JSON object (the cleaned-trace
    /// format of the paper's artifact).
    pub fn to_json(&self) -> String {
        let class = match self.class {
            RequestClass::Interactive => "Interactive",
            RequestClass::Batch => "Batch",
        };
        let group = match self.prefix_group {
            Some(g) => g.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"id\":{},\"arrival\":{},\"input_tokens\":{},\"output_tokens\":{},\
             \"class\":\"{class}\",\"cached_prefix\":{},\"prefix_group\":{group}}}",
            self.id,
            self.arrival.as_secs(),
            self.input_tokens,
            self.output_tokens,
            self.cached_prefix,
        )
    }

    /// Parses a request from one JSON object produced by
    /// [`Request::to_json`] (unknown keys are ignored; `cached_prefix`
    /// and `prefix_group` default when absent).
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] for malformed input, including an
    /// `arrival` that is not a finite number in
    /// `0..=`[`MAX_ARRIVAL_SECS`], and an `id` or token count that is
    /// not a non-negative integer fitting its field.
    pub fn from_json(s: &str) -> Result<Request, TraceParseError> {
        let fields = json::parse_object(s)?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        let required = |key: &str| get(key).ok_or_else(|| TraceParseError::missing(key));
        let arrival = {
            let v = required("arrival")?;
            match v.parse::<f64>() {
                Ok(secs) if (0.0..=MAX_ARRIVAL_SECS).contains(&secs) => SimTime::from_secs(secs),
                _ => return Err(TraceParseError::bad_value("arrival", v)),
            }
        };
        let tokens = |key: &str| -> Result<u32, TraceParseError> {
            let v = required(key)?;
            v.parse::<u32>().map_err(|_| TraceParseError::bad_value(key, v))
        };
        let class = match get("class") {
            Some("\"Interactive\"") | None => RequestClass::Interactive,
            Some("\"Batch\"") => RequestClass::Batch,
            Some(v) => return Err(TraceParseError::bad_value("class", v)),
        };
        let prefix_group = match get("prefix_group") {
            None | Some("null") => None,
            Some(v) => {
                Some(v.parse::<u64>().map_err(|_| TraceParseError::bad_value("prefix_group", v))?)
            }
        };
        let cached_prefix = match get("cached_prefix") {
            None => 0,
            Some(v) => {
                v.parse::<u32>().map_err(|_| TraceParseError::bad_value("cached_prefix", v))?
            }
        };
        let id = required("id")?;
        Ok(Request {
            id: id.parse::<u64>().map_err(|_| TraceParseError::bad_value("id", id))?,
            arrival,
            input_tokens: tokens("input_tokens")?,
            output_tokens: tokens("output_tokens")?,
            class,
            cached_prefix,
            prefix_group,
        })
    }
}

/// Why a JSON-lines trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    message: String,
}

impl TraceParseError {
    fn new(message: impl Into<String>) -> TraceParseError {
        TraceParseError { message: message.into() }
    }

    fn missing(key: &str) -> TraceParseError {
        TraceParseError::new(format!("missing field `{key}`"))
    }

    fn bad_value(key: &str, value: &str) -> TraceParseError {
        TraceParseError::new(format!("invalid value for `{key}`: {value}"))
    }
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed trace line: {}", self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// A deliberately small flat-JSON reader: enough for the trace format
/// (one object per line, scalar values only), with no external
/// dependencies. Nested objects/arrays are rejected.
mod json {
    use super::TraceParseError;

    /// Splits `{"k":v,...}` into `(key, raw_value)` pairs. String values
    /// keep their surrounding quotes.
    pub fn parse_object(s: &str) -> Result<Vec<(String, String)>, TraceParseError> {
        let s = s.trim();
        let inner = s
            .strip_prefix('{')
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or_else(|| TraceParseError::new("expected a JSON object"))?;
        let mut fields = Vec::new();
        for part in split_top_level(inner)? {
            if part.trim().is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| TraceParseError::new("expected `key: value`"))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| TraceParseError::new("expected a quoted key"))?;
            fields.push((key.to_string(), value.trim().to_string()));
        }
        Ok(fields)
    }

    /// Splits on commas that are not inside quotes.
    fn split_top_level(s: &str) -> Result<Vec<&str>, TraceParseError> {
        let mut parts = Vec::new();
        let mut start = 0;
        let mut in_string = false;
        for (i, c) in s.char_indices() {
            match c {
                '"' => in_string = !in_string,
                '{' | '[' if !in_string => {
                    return Err(TraceParseError::new("nested values are not supported"));
                }
                ',' if !in_string => {
                    parts.push(&s[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if in_string {
            return Err(TraceParseError::new("unterminated string"));
        }
        parts.push(&s[start..]);
        Ok(parts)
    }
}

/// A time-ordered sequence of requests.
///
/// # Examples
///
/// ```
/// use sp_metrics::SimTime;
/// use sp_workload::{Request, RequestClass, Trace};
///
/// let trace = Trace::new(vec![Request {
///     id: 0,
///     arrival: SimTime::ZERO,
///     input_tokens: 128,
///     output_tokens: 16,
///     class: RequestClass::Interactive,
///     cached_prefix: 0,
///     prefix_group: None,
/// }]);
/// assert_eq!(trace.total_tokens(), 144);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Creates a trace, sorting requests by arrival time and reassigning
    /// ids in arrival order.
    pub fn new(mut requests: Vec<Request>) -> Trace {
        requests.sort_by(|a, b| {
            a.arrival.as_secs().partial_cmp(&b.arrival.as_secs()).expect("finite times")
        });
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = i as u64;
        }
        Trace { requests }
    }

    /// Creates a trace preserving the requests' existing ids: for a
    /// filtered or sliced already-numbered trace (the agentic scenario
    /// drops the requests no replica fits), or for hand-numbered requests.
    pub fn with_ids(mut requests: Vec<Request>) -> Trace {
        requests.sort_by(|a, b| {
            a.arrival.as_secs().partial_cmp(&b.arrival.as_secs()).expect("finite times")
        });
        Trace { requests }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Time span from first to last arrival.
    pub fn span(&self) -> Dur {
        match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) => last.arrival.since(first.arrival),
            _ => Dur::ZERO,
        }
    }

    /// Total prompt + output tokens across all requests.
    pub fn total_tokens(&self) -> u64 {
        self.requests.iter().map(Request::total_tokens).sum()
    }

    /// Total prompt tokens.
    pub fn total_input_tokens(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.input_tokens)).sum()
    }

    /// Total output tokens.
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.output_tokens)).sum()
    }

    /// Mean request arrival rate over the span, requests/second.
    pub fn mean_arrival_rate(&self) -> f64 {
        let span = self.span().as_secs();
        if span == 0.0 {
            0.0
        } else {
            self.len() as f64 / span
        }
    }

    /// Requests arriving per `bin`-second window, for the Figure 2/7/8
    /// arrival-rate panels.
    pub fn arrival_histogram(&self, bin: Dur) -> Vec<(SimTime, usize)> {
        let mut series = sp_metrics::BinnedSeries::new(bin);
        for r in &self.requests {
            series.record(r.arrival, 1.0);
        }
        series.totals().map(|(t, v)| (t, v as usize)).collect()
    }

    /// Merges two traces, re-sorting by arrival.
    pub fn merge(self, other: Trace) -> Trace {
        let mut all = self.requests;
        all.extend(other.requests);
        Trace::new(all)
    }

    /// Serializes to JSON lines (one request per line), the cleaned-trace
    /// format of the paper's artifact.
    pub fn to_jsonl(&self) -> String {
        self.requests.iter().map(Request::to_json).collect::<Vec<_>>().join("\n")
    }

    /// Writes the trace to `path` as JSON lines.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Reads a trace from a JSON-lines file written by [`Trace::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files, or an
    /// `InvalidData` error for malformed lines.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Trace> {
        let text = std::fs::read_to_string(path)?;
        Trace::from_jsonl(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Parses a trace from JSON lines.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] for the first malformed line.
    pub fn from_jsonl(s: &str) -> Result<Trace, TraceParseError> {
        let requests = s
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(Request::from_json)
            .collect::<Result<Vec<Request>, _>>()?;
        Ok(Trace::new(requests))
    }
}

impl FromIterator<Request> for Trace {
    fn from_iter<T: IntoIterator<Item = Request>>(iter: T) -> Trace {
        Trace::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(at: f64, inp: u32, out: u32) -> Request {
        Request {
            id: 0,
            arrival: SimTime::from_secs(at),
            input_tokens: inp,
            output_tokens: out,
            class: RequestClass::Interactive,
            cached_prefix: 0,
            prefix_group: None,
        }
    }

    #[test]
    fn new_sorts_and_renumbers() {
        let t = Trace::new(vec![req(5.0, 1, 1), req(1.0, 2, 2), req(3.0, 3, 3)]);
        let arrivals: Vec<f64> = t.requests().iter().map(|r| r.arrival.as_secs()).collect();
        assert_eq!(arrivals, vec![1.0, 3.0, 5.0]);
        let ids: Vec<u64> = t.requests().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn token_totals() {
        let t = Trace::new(vec![req(0.0, 100, 10), req(1.0, 200, 20)]);
        assert_eq!(t.total_input_tokens(), 300);
        assert_eq!(t.total_output_tokens(), 30);
        assert_eq!(t.total_tokens(), 330);
    }

    #[test]
    fn span_and_rate() {
        let t = Trace::new(vec![req(0.0, 1, 1), req(10.0, 1, 1)]);
        assert_eq!(t.span().as_secs(), 10.0);
        assert_eq!(t.mean_arrival_rate(), 0.2);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.span(), Dur::ZERO);
        assert_eq!(t.mean_arrival_rate(), 0.0);
        assert!(t.arrival_histogram(Dur::from_secs(1.0)).is_empty());
    }

    #[test]
    fn arrival_histogram_bins_correctly() {
        let t = Trace::new(vec![req(0.1, 1, 1), req(0.2, 1, 1), req(2.5, 1, 1)]);
        let h = t.arrival_histogram(Dur::from_secs(1.0));
        assert_eq!(h[0].1, 2);
        assert_eq!(h[1].1, 0);
        assert_eq!(h[2].1, 1);
    }

    #[test]
    fn merge_interleaves_by_time() {
        let a = Trace::new(vec![req(0.0, 1, 1), req(4.0, 1, 1)]);
        let b = Trace::new(vec![req(2.0, 9, 9)]);
        let merged = a.merge(b);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.requests()[1].input_tokens, 9);
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = Trace::new(vec![req(0.5, 128, 16), req(1.5, 64, 8)]);
        let parsed = Trace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(Trace::from_jsonl("not json").is_err());
    }

    /// A trace line with one field replaced by `value`.
    fn line_with(key: &str, value: &str) -> String {
        let mut fields =
            [("id", "7"), ("arrival", "1.5"), ("input_tokens", "128"), ("output_tokens", "16")];
        fields.iter_mut().find(|(k, _)| *k == key).expect("known key").1 = value;
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }

    fn parse_error(key: &str, value: &str) -> String {
        Request::from_json(&line_with(key, value)).expect_err("must be rejected").to_string()
    }

    #[test]
    fn well_formed_line_parses() {
        let r = Request::from_json(&line_with("id", "7")).unwrap();
        assert_eq!((r.id, r.arrival.as_secs(), r.input_tokens, r.output_tokens), (7, 1.5, 128, 16));
    }

    #[test]
    fn negative_arrival_is_a_parse_error() {
        assert!(parse_error("arrival", "-5").contains("arrival"));
    }

    #[test]
    fn arrival_beyond_the_horizon_is_a_parse_error() {
        assert!(parse_error("arrival", "1e308").contains("arrival"));
        assert!(parse_error("arrival", "1000000.5").contains("arrival"));
        assert!(Request::from_json(&line_with("arrival", "1e6")).is_ok(), "the bound is inclusive");
    }

    #[test]
    fn non_finite_arrival_is_a_parse_error() {
        assert!(parse_error("arrival", "NaN").contains("arrival"));
        assert!(parse_error("arrival", "inf").contains("arrival"));
    }

    #[test]
    fn negative_token_count_is_a_parse_error() {
        assert!(parse_error("input_tokens", "-3").contains("input_tokens"));
        assert!(parse_error("output_tokens", "-1").contains("output_tokens"));
    }

    #[test]
    fn fractional_or_oversized_token_count_is_a_parse_error() {
        assert!(parse_error("input_tokens", "12.5").contains("input_tokens"));
        assert!(parse_error("output_tokens", "4294967296").contains("output_tokens"));
    }

    #[test]
    fn negative_or_fractional_id_is_a_parse_error() {
        assert!(parse_error("id", "-1").contains("id"));
        assert!(parse_error("id", "2.5").contains("id"));
    }

    #[test]
    fn save_load_roundtrip() {
        let t = Trace::new(vec![req(0.5, 128, 16), req(1.5, 64, 8)]);
        let path = std::env::temp_dir().join("sp_trace_roundtrip_test.jsonl");
        t.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, t);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(Trace::load("/nonexistent/sp_trace.jsonl").is_err());
    }

    /// Bytes a mutation may insert: JSON structure, number syntax, and
    /// whitespace that can split or join lines.
    const INSERTS: &[u8] = b"{}[]\",:-.eE0123456789 \n";
    /// Non-ASCII text a mutation may insert (multi-byte UTF-8, a NUL, a
    /// lone replacement character).
    const NON_ASCII: &[&str] = &["\u{e9}", "\u{20ac}", "\u{1f600}", "\u{0}", "\u{fffd}"];

    /// Applies one mutation to `bytes`: `op` picks a byte flip, an
    /// insert from [`INSERTS`], a deletion, a truncation, or a
    /// non-ASCII insert; `pos` and `pick` choose where and what.
    fn mutate(bytes: &mut Vec<u8>, op: u8, pos: usize, pick: u8) {
        let at = if bytes.is_empty() { 0 } else { pos % bytes.len() };
        match op % 5 {
            0 if !bytes.is_empty() => bytes[at] ^= 1 << (pick % 8),
            1 => bytes.insert(at, INSERTS[usize::from(pick) % INSERTS.len()]),
            2 if !bytes.is_empty() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            4 => {
                let text = NON_ASCII[usize::from(pick) % NON_ASCII.len()].as_bytes();
                bytes.splice(at..at, text.iter().copied());
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Mutated trace files never panic the hand-rolled JSONL reader:
        /// `from_jsonl` returns `Ok` or `Err`, and whatever it accepts
        /// holds `from_json`'s own bounds — one request per non-empty
        /// line, every arrival finite in `0..=MAX_ARRIVAL_SECS`.
        #[test]
        fn mutated_jsonl_never_panics(
            reqs in prop::collection::vec(
                (0.0f64..1.2e6, any::<u32>(), any::<u32>(), any::<bool>()),
                1..4,
            ),
            mutations in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
        ) {
            let trace = Trace::new(
                reqs.into_iter()
                    .map(|(at, input, output, batch)| Request {
                        class: if batch { RequestClass::Batch } else { RequestClass::Interactive },
                        prefix_group: batch.then_some(u64::from(input)),
                        ..req(at, input, output)
                    })
                    .collect(),
            );
            let mut bytes = trace.to_jsonl().into_bytes();
            for (op, pos, pick) in mutations {
                mutate(&mut bytes, op, pos, pick);
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(parsed) = Trace::from_jsonl(&text) {
                let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
                prop_assert_eq!(parsed.len(), lines);
                for r in parsed.requests() {
                    let secs = r.arrival.as_secs();
                    prop_assert!(
                        secs.is_finite() && (0.0..=MAX_ARRIVAL_SECS).contains(&secs),
                        "accepted arrival {secs} outside the trace bounds"
                    );
                }
            }
        }
    }
}
