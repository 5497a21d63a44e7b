//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark prints, with the same units, in the same order.

use lp_perfbench::{per_layer_names, Workload, END_TO_END};

/// `(name, unit)` of every metric object in the `key` list.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let field = |f: &str| {
                let at = obj.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect();
    assert_eq!(listed(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&json, "per_layer"), layers);
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}
