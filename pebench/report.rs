//! Run metadata, result records, and the little JSON this needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::workloads::{Metric, Report};

/// Facts about the host that make two results comparable or not.
#[derive(Debug)]
pub struct Facts {
    pub nproc: usize,
    /// The AES engine the crypto layer actually constructed.
    pub aes_backend: String,
    pub store_fs: String,
    pub store_device: String,
    pub kernel: String,
    pub commit: String,
}

/// The facts a comparison must agree on (the commit may differ).
pub const HOST_FACTS: [&str; 5] = ["nproc", "aes_backend", "store_fs", "store_device", "kernel"];

/// The run parameters a comparison must agree on (the seed is checked
/// per pair).
pub const RUN_PARAMS: [&str; 7] = [
    "seconds",
    "trace",
    "smoke",
    "setups",
    "rounds",
    "open_share",
    "workloads",
];

impl Facts {
    /// Reads the host's facts; call after the run, so the crypto
    /// counters show which AES backend was built.
    pub fn gather(store_dir: &Path) -> Facts {
        let snap = pe_observe::global().snapshot();
        let aes_backend = ["aesni", "table", "scalar"]
            .into_iter()
            .map(|b| (snap.counter(&format!("crypto.backend.{b}")).unwrap_or(0), b))
            .max()
            .filter(|(count, _)| *count > 0)
            .map_or_else(|| "unknown".to_string(), |(_, b)| b.to_string());
        let (store_fs, store_device) = mount_of(store_dir);
        Facts {
            nproc: crate::stack::nproc(),
            aes_backend,
            store_fs,
            store_device,
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"aes_backend\":{},\"store_fs\":{},\"store_device\":{},\"kernel\":{},\"commit\":{}}}",
            self.nproc,
            quote(&self.aes_backend),
            quote(&self.store_fs),
            quote(&self.store_device),
            quote(&self.kernel),
            quote(&self.commit)
        )
    }
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Filesystem type and device of the mount holding `dir`.
fn mount_of(dir: &Path) -> (String, String) {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (device, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string(), device.to_string()))
        })
        .max_by_key(|(len, _, _)| *len)
        .map_or_else(
            || ("unknown".into(), "unknown".into()),
            |(_, fs, device)| (fs, device),
        )
}

/// The checked-out commit, if the working directory is inside a git
/// repository.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd
        .ancestors()
        .map(|d| d.join(".git"))
        .find(|g| g.is_dir())?;
    let head = read_trimmed(git.join("HEAD"))?;
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    read_trimmed(git.join(reference)).or_else(|| {
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    })
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, …}`, optionally with sample counts.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(",\"samples\":{}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{samples}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// One workload's full record: what `--record` writes and `--out`
/// collects.
pub fn record_json(workload: &str, report: &Report, facts: &Facts) -> String {
    let notes: Vec<String> = report.notes.iter().map(|n| quote(n)).collect();
    format!(
        "{{\"workload\":{},\"facts\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"end_to_end\":{},\"per_layer\":{},\"spans\":{},\"notes\":[{}]}}",
        quote(workload),
        facts.to_json(),
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics_json(&report.end_to_end, true),
        metrics_json(&report.per_layer, true),
        metrics_json(&report.spans, true),
        notes.join(",")
    )
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders back to compact JSON (used to embed records verbatim).
    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => n.to_string(),
            Json::Str(s) => quote(s),
            Json::Arr(items) => {
                format!(
                    "[{}]",
                    items.iter().map(Json::render).collect::<Vec<_>>().join(",")
                )
            }
            Json::Obj(map) => format!(
                "{{{}}}",
                map.iter()
                    .map(|(k, v)| format!("{}:{}", quote(k), v.render()))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(value)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let mut chars = rest.char_indices();
            let (offset, c) = chars.next().ok_or("unterminated string")?;
            self.i += offset + c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let escaped = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_records() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\\zA"}, "d": true, "e": null}"#;
        let json = parse(text).unwrap();
        assert_eq!(json.get("a").unwrap().arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(
            json.get("b").unwrap().get("c").unwrap().str(),
            Some("x\"y\\zA")
        );
        assert_eq!(parse(&json.render()).unwrap(), json);
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
    }
}
