//! The one writer behind every committed `BENCH_*.json` file.
//!
//! A report is built as a [`Json`] value, stamped with a provenance header
//! by [`document`], and written by [`write_report`].  The build environment
//! has no serde, so the value type is a small std-only one: objects keep
//! their keys in insertion order, strings are escaped, and every float
//! carries the number of digits it is rendered with, so a report states its
//! precision once, where the value is built.
//!
//! Rendering puts each key of the top-level object and each array element
//! on its own line; every other object stays on one line.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// An integer (wide enough for every `u64` and `i64` counter).
    Int(i128),
    /// A float rendered with a fixed number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A float rendered in scientific notation with a fixed number of
    /// mantissa decimals (`{:.Ne}`), for values spanning many magnitudes.
    Sci(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

/// An object literal, `obj! {"key": value, ...}`: keys in the order
/// written, each value converted with `Json::from`.
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key.to_string(), $crate::Json::from($value))),*])
    };
}
pub(crate) use obj;

impl Json {
    /// The value under `key`, when `self` is an object holding it.
    #[cfg(test)]
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => push(out, b),
            Json::Int(i) => push(out, i),
            // JSON has no NaN or infinity.
            Json::Fixed(x, _) | Json::Sci(x, _) if !x.is_finite() => out.push_str("null"),
            Json::Fixed(x, d) => push(out, format_args!("{x:.d$}")),
            Json::Sci(x, d) => push(out, format_args!("{x:.d$e}")),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.extend(std::iter::repeat_n(' ', indent + 2));
                    item.write(out, indent + 2);
                }
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                // Only the top-level object sits at indent 0: every nested
                // value starts on a line indented by at least two.
                let (open, sep, close) = if indent == 0 && !fields.is_empty() {
                    ("{\n  ", ",\n  ", "\n}")
                } else {
                    ("{", ", ", "}")
                };
                out.push_str(open);
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    escape(key, out);
                    out.push_str(": ");
                    value.write(out, indent.max(2));
                }
                out.push_str(close);
            }
        }
    }
}

/// Renders the value; an object at the top level puts one key per line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $value
            }
        }
    )*};
}
json_from! {
    u16 => |v| Json::Int(v.into()), u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v.into()), usize => |v| Json::Int(v as i128),
    i32 => |v| Json::Int(v.into()), i64 => |v| Json::Int(v.into()),
    bool => |v| Json::Bool(v), String => |v| Json::Str(v), &str => |v| Json::Str(v.to_string()),
}

fn push(out: &mut String, value: impl fmt::Display) {
    write!(out, "{value}").expect("writing to a String cannot fail");
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => push(out, format_args!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A report document: the `provenance` header, then the fields of `body`
/// (an object).
///
/// The header records the checkout's commit (read from `.git` in the
/// working directory, as the repository benchmark reads it, with `+modified`
/// appended when git lists a change to a tracked file), the host's CPU
/// count, the build profile, and `timing`, the harness's own one-line
/// statement of how its wall times were taken.
pub(crate) fn document(timing: &str, body: Json) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let provenance =
        obj! {"commit": commit(), "nproc": nproc, "profile": profile, "timing": timing};
    let Json::Obj(fields) = body else {
        panic!("a report document is an object")
    };
    let header = ("provenance".to_string(), provenance);
    Json::Obj(std::iter::once(header).chain(fields).collect())
}

/// The commit of the checkout, marked `+modified` when its tracked files
/// differ from it.  A tree git cannot inspect keeps the bare commit.
fn commit() -> String {
    let head = head_commit();
    let status = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output();
    match status {
        Ok(out) if out.status.success() && lists_change(&String::from_utf8_lossy(&out.stdout)) => {
            format!("{head}+modified")
        }
        _ => head,
    }
}

/// Whether `git status --porcelain` output names any changed path.
fn lists_change(porcelain: &str) -> bool {
    porcelain.lines().any(|line| !line.trim().is_empty())
}

/// The commit `.git/HEAD` names, when there is a `.git`.
fn head_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (no .git)".to_string();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    let packed = || {
        let refs = std::fs::read_to_string(".git/packed-refs").ok()?;
        refs.lines()
            .find_map(|l| l.strip_suffix(reference).map(str::to_string))
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(packed)
        .map_or_else(
            || format!("unknown ({reference})"),
            |hash| hash.trim().to_string(),
        )
}

/// Write `report` to `path`, print the acceptance `failures`, and exit
/// nonzero when there are any, unless `no_fail` (the `--no-fail` flag every
/// harness takes) asks for reporting only.
pub fn write_report(path: &str, report: &Json, failures: &[String], no_fail: bool) {
    std::fs::write(path, format!("{report}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
    if !failures.is_empty() {
        for f in failures {
            eprintln!("FAIL: {f}");
        }
        if !no_fail {
            std::process::exit(1);
        }
        eprintln!("(--no-fail: reporting only)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_keep_their_digits_and_non_finite_is_null() {
        assert_eq!(Json::Fixed(0.035, 4).to_string(), "0.0350");
        assert_eq!(Json::Fixed(2.0, 0).to_string(), "2");
        assert_eq!(Json::Sci(0.0, 2).to_string(), "0.00e0");
        assert_eq!(Json::Sci(1.234e-9, 2).to_string(), "1.23e-9");
        assert_eq!(Json::Fixed(f64::NAN, 3).to_string(), "null");
        assert_eq!(Json::Sci(f64::INFINITY, 2).to_string(), "null");
        assert_eq!(Json::from(u64::MAX).to_string(), u64::MAX.to_string());
        assert_eq!(Json::from(-3i64).to_string(), "-3");
    }

    #[test]
    fn top_level_keys_and_array_elements_take_one_line_each() {
        let rows = vec![
            obj! {"x": true, "ys": Json::Arr(vec![2u32.into()])},
            obj! {},
        ];
        let doc = obj! {"a": 1u32, "empty": Json::Arr(vec![]), "rows": Json::Arr(rows)};
        let expected = "{\n  \"a\": 1,\n  \"empty\": [],\n  \"rows\": [\n    \
                        {\"x\": true, \"ys\": [\n      2\n    ]},\n    {}\n  ]\n}";
        assert_eq!(doc.to_string(), expected);
        assert_eq!(obj! {}.to_string(), "{}");
    }

    #[test]
    fn porcelain_output_with_a_path_marks_the_tree_modified() {
        assert!(!lists_change(""));
        assert!(!lists_change("\n"));
        assert!(lists_change(" M crates/ilp/src/basis.rs\n"));
        assert!(lists_change("M  README.md\nD  old.txt\n"));
        assert!(lists_change("R  a.rs -> b.rs\n"));
    }
}
