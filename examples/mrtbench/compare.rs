//! `mrtbench compare PARENT_DIR CHANGE_DIR`: judges a change against its
//! parent from saved result sets, metric by metric and workload by
//! workload, with the pair rule of the repository's benchmarking method.

use std::collections::BTreeMap;
use std::path::Path;

use crate::util::{median, quartiles};
use crate::{Better, Metric, END_TO_END, PER_LAYER};

/// Pairs needed before a gain may be claimed.
const MIN_PAIRS: usize = 10;

/// A JSON value, as much of JSON as result lines use: objects,
/// strings, numbers and booleans.
#[derive(Debug, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value()? else {
                        return Err(format!("object key expected at byte {}", self.i));
                    };
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.s.get(self.i) == Some(&b',') {
                        self.i += 1;
                    } else {
                        self.eat(b'}')?;
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let start = self.i;
                while self.s.get(self.i).is_some_and(|&b| b != b'"') {
                    // Result files escape nothing; a backslash would
                    // need a real JSON reader.
                    if self.s[self.i] == b'\\' {
                        return Err("escaped strings are not supported".into());
                    }
                    self.i += 1;
                }
                let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
                self.eat(b'"')?;
                Ok(Json::Str(text))
            }
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b"+-.".contains(b))
                {
                    self.i += 1;
                }
                match &self.s[start..self.i] {
                    b"true" => Ok(Json::Bool(true)),
                    b"false" => Ok(Json::Bool(false)),
                    num => std::str::from_utf8(num)
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad token at byte {start}")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes at {}", p.i))
    }
}

/// `workload → metric → values`, in file-name (run) order.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;
/// `workload → seeds`, in the same order (from `-s<seed>.json`).
type Seeds = BTreeMap<String, Vec<String>>;

/// Reads every `<workload>-*.json` result in `dir`: the last line of
/// each file is a result object as `mrtbench run` prints it.
fn load(dir: &Path) -> Result<(Results, Seeds), String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let (mut out, mut seeds) = (Results::new(), Seeds::new());
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let workload = name.split(['-', '.']).next().unwrap_or_default().to_owned();
        let seed = name
            .trim_end_matches(".json")
            .rsplit_once("-s")
            .map_or("", |(_, s)| s);
        seeds
            .entry(workload.clone())
            .or_default()
            .push(seed.to_owned());
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or_default();
        let json = parse(last).map_err(|e| format!("{}: {e}", path.display()))?;
        if json.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{}: run was not correct; it cannot be compared",
                path.display()
            ));
        }
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(format!("{}: no metrics object", path.display()));
        };
        for (metric, v) in metrics {
            if let Some(Json::Num(x)) = v.get("value") {
                out.entry(workload.clone())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(*x);
            }
        }
    }
    Ok((out, seeds))
}

/// Better, worse, unchanged, or unresolved for one workload × metric.
///
/// * better: the change wins at least 9 in 10 pairs (ties count for
///   neither side), over at least [`MIN_PAIRS`] pairs, and the medians
///   differ in its favour by more than the parent's interquartile range;
/// * worse: the change's median is worse than the parent's by more than
///   the metric's bound (per-layer metrics have none: for them, the
///   better rule mirrored);
/// * unresolved: neither, while the parent's own spread is wider than
///   the bound, unless every change run reads better than every parent
///   run;
/// * unchanged: otherwise.
fn verdict(metric: &Metric, parent: &[f64], change: &[f64]) -> &'static str {
    let sign = if metric.better == Better::Lower {
        -1.0
    } else {
        1.0
    };
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let gain = sign * (cm - pm);
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| sign * (change[i] - parent[i]) > 0.0)
        .count();
    let losses = (0..pairs)
        .filter(|&i| sign * (change[i] - parent[i]) < 0.0)
        .count();
    let decisive = |n: usize| pairs >= MIN_PAIRS && n * 10 >= pairs * 9;
    if decisive(wins) && gain > q3 - q1 {
        return "better";
    }
    let Some(bound) = metric.bound else {
        return if decisive(losses) && -gain > q3 - q1 {
            "worse"
        } else {
            "unchanged"
        };
    };
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| sign * (c - p) > 0.0));
    if -gain > bound * pm.abs() {
        "worse"
    } else if (q3 - q1) > bound * pm.abs() && !all_better {
        "unresolved"
    } else {
        "unchanged"
    }
}

/// Prints the comparison table; returns whether no metric got worse.
pub fn run(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let ((parent, parent_seeds), (change, change_seeds)) = (load(parent_dir)?, load(change_dir)?);
    let mut clean = true;
    println!(
        "{:<8} {:<38} {:>7} | {:>34} | {:>34} | {:>5} | verdict",
        "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "pairs"
    );
    for (workload, metrics) in &parent {
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(p), Some(c)) = (
                metrics.get(metric.name),
                change.get(workload).and_then(|m| m.get(metric.name)),
            ) else {
                continue;
            };
            let v = verdict(metric, p, c);
            clean &= v != "worse";
            let show = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.6} [{:.6}, {:.6}]", median(x), q1, q3)
            };
            println!(
                "{:<8} {:<38} {:>7} | {:>34} | {:>34} | {:>5} | {v}",
                workload,
                metric.name,
                metric.unit,
                show(p),
                show(c),
                p.len().min(c.len())
            );
        }
    }
    let pairs = parent
        .values()
        .flat_map(BTreeMap::values)
        .map(Vec::len)
        .min()
        .unwrap_or(0);
    if pairs < MIN_PAIRS {
        println!(
            "note: fewer than {MIN_PAIRS} runs per side; no gain can be claimed from these sets"
        );
    }
    // Counted metrics depend on the corpus, so a pair only compares the
    // program when both of its runs drew the same inputs.
    for (workload, seeds) in &parent_seeds {
        let other = change_seeds.get(workload).map_or(&[][..], Vec::as_slice);
        if seeds.iter().zip(other).any(|(a, b)| a != b) {
            println!(
                "note: {workload}: paired runs used different seeds, so their inputs differ; \
                 run the same seeds on both sides"
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: Metric = Metric {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };

    #[test]
    fn parses_a_result_line() {
        let j = parse(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a": {"value": 1.5e-3, "unit": "ms"}}}"#)
            .unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let a = j
            .get("metrics")
            .and_then(|m| m.get("a"))
            .and_then(|a| a.get("value"));
        assert_eq!(a, Some(&Json::Num(0.0015)));
        assert!(parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn verdicts_follow_the_pair_rule_and_the_bound() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + f64::from(i) * 0.001).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&LAT, &parent, &faster), "better");
        assert_eq!(verdict(&LAT, &parent, &slower), "worse");
        assert_eq!(verdict(&LAT, &parent, &same), "unchanged");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 0.5 } else { 1.5 })
            .collect();
        assert_eq!(verdict(&LAT, &noisy, &noisy), "unresolved");
        // Five pairs cannot carry a gain, however clear.
        assert_eq!(verdict(&LAT, &parent[..5], &faster[..5]), "unchanged");
    }
}
