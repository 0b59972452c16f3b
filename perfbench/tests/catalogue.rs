//! `BENCHMARK.json` at the repository root must list exactly the metrics
//! the benchmark reports, with the same units, and exactly its workloads.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workloads::NAMES;

/// The `"name"`/`"unit"` pairs inside the JSON array under `key`.
fn entries(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[at..];
    let body = &body[body.find('[').expect("array")..];
    let body = &body[..body.find(']').expect("array end")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("entry has a name"),
                field(obj, "unit"),
            )
        })
        .collect()
}

fn field(obj: &str, key: &str) -> Option<String> {
    let rest = &obj[obj.find(&format!("\"{key}\""))? + key.len() + 2..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

fn pairs(table: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

#[test]
fn metrics_match_the_catalogue() {
    let json = benchmark_json();
    assert_eq!(entries(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(entries(&json, "per_layer"), pairs(&PER_LAYER));
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let names: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|e| e.0)
        .collect();
    assert_eq!(names, NAMES.map(String::from).to_vec());
}
