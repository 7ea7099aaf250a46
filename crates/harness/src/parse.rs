//! Campaign-file loading: TOML and JSON.
//!
//! Offline build: no serde. The TOML dialect is the small declarative
//! subset campaign files need — top-level `key = value` pairs for the
//! campaign, `[[scenario]]` table arrays, strings / integers / floats /
//! booleans / flat arrays, `#` comments — and both formats funnel into the
//! same [`Json`] shape before [`campaign_from_json`] builds the
//! [`Campaign`]:
//!
//! ```toml
//! name = "example"
//! threads = 0
//!
//! [[scenario]]
//! name = "fig2-silent"
//! topology = "fig2"
//! f = 1
//! adversary = "silent"
//! faulty = [5]
//! seeds = 16
//! ```

use crate::adversary::AdversaryRegistry;
use crate::campaign::{Campaign, CampaignMode};
use crate::json::{self, Json};
use crate::scenario::{
    ChurnSpec, FaultPlacement, FaultSpec, Named, PlacementKind, Scenario, TopologyFamily,
    TopologySpec,
};

/// Loads a campaign from TOML or JSON text, deciding by syntax (JSON
/// documents start with `{`).
///
/// # Errors
///
/// Returns a description of the first syntax or schema problem.
pub fn campaign_from_str(input: &str) -> Result<Campaign, String> {
    let trimmed = input.trim_start();
    let doc = if trimmed.starts_with('{') {
        json::parse(input)?
    } else {
        toml_to_json(input)?
    };
    campaign_from_json(&doc)
}

/// Builds a campaign from the common document shape
/// `{name, threads?, scenario: [...]}`.
///
/// # Errors
///
/// Returns a description of the first schema problem.
pub fn campaign_from_json(doc: &Json) -> Result<Campaign, String> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("campaign needs a string `name`")?
        .to_string();
    let threads = get_usize(doc, "threads")?.unwrap_or(0);
    let mode = get_named(doc, "mode")?.unwrap_or_default();
    let scenario_docs = doc
        .get("scenario")
        .and_then(Json::as_arr)
        .ok_or("campaign needs at least one [[scenario]]")?;
    if scenario_docs.is_empty() {
        return Err("campaign needs at least one [[scenario]]".into());
    }
    let mut scenarios = Vec::with_capacity(scenario_docs.len());
    for (i, s) in scenario_docs.iter().enumerate() {
        scenarios.push(scenario_from_json(s).map_err(|e| format!("scenario #{}: {e}", i + 1))?);
    }
    if mode == CampaignMode::Explore {
        // Keys the explorer does not support fail at load time, naming
        // the scenario and the offending key — a generic per-record
        // error at run time buries the fix. The adversary is classified
        // as the explorer's setup does; an unknown name stays a run-time
        // record error.
        let registry = AdversaryRegistry::builtin();
        for s in &scenarios {
            let value_injecting = registry
                .resolve(&s.adversary)
                .is_ok_and(|kind| !kind.preserves_validity());
            if let Some(err) = s.explore_unsupported(value_injecting) {
                return Err(err);
            }
        }
    }
    Ok(Campaign {
        name,
        mode,
        threads,
        scenarios,
    })
}

/// Scenario keys that configured the explorer's second search discipline
/// and its fixed parameters. Scenario tables ignore unknown keys, so an
/// old campaign file carrying one of these would silently explore
/// something other than what it asks for — they are rejected instead.
const REMOVED_KEYS: [&str; 4] = ["search", "sleep_sets", "frontier_depth", "bft_view_timeout"];

/// Builds a scenario from [`Scenario::default`], overriding only the keys
/// the table sets; `name` and `topology` are required.
fn scenario_from_json(doc: &Json) -> Result<Scenario, String> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("needs a string `name`")?
        .to_string();
    if let Some(key) = REMOVED_KEYS.iter().find(|key| doc.get(key).is_some()) {
        return Err(format!(
            "scenario `{name}`: key `{key}` was removed: the explorer has one search discipline"
        ));
    }

    let mut s = Scenario {
        topology: topology_from_json(doc)?,
        name,
        ..Scenario::default()
    };
    s.f = get_usize(doc, "f")?.unwrap_or(s.f);
    s.topology
        .validate(s.f)
        .map_err(|e| format!("scenario `{}`: {e}", s.name))?;

    if let Some(v) = doc.get("adversary") {
        s.adversary = v
            .as_str()
            .ok_or("`adversary` must be a string")?
            .to_string();
    }
    s.faults = faults_from_json(doc, s.f)?.unwrap_or(s.faults);
    if let Some(table) = doc.get("faults") {
        s.fault_plan = fault_spec_from_json(table)?;
    }
    s.protocol = get_named(doc, "protocol")?.unwrap_or(s.protocol);

    let network = &mut s.network;
    network.gst = get_u64(doc, "gst")?.unwrap_or(network.gst);
    network.delta = get_u64(doc, "delta")?.unwrap_or(network.delta);
    network.max_ticks = get_u64(doc, "max_ticks")?.unwrap_or(network.max_ticks);
    network
        .validate()
        .map_err(|e| format!("scenario `{}`: {e}", s.name))?;

    s.seeds = get_u64(doc, "seeds")?.unwrap_or(s.seeds);
    if s.seeds == 0 {
        return Err("`seeds` must be at least 1".into());
    }
    s.seed_base = get_u64(doc, "seed_base")?.unwrap_or(s.seed_base);
    s.oracle = get_named(doc, "oracle")?.unwrap_or(s.oracle);
    if let Some(v) = doc.get("inputs") {
        s.inputs = Some(inputs_from_json(v)?);
    }

    let explore = &mut s.explore;
    explore.max_steps = get_u32(doc, "max_steps")?.unwrap_or(explore.max_steps);
    explore.max_states = get_u64(doc, "max_states")?.unwrap_or(explore.max_states);
    explore.timer_budget = get_u32(doc, "timer_budget")?.unwrap_or(explore.timer_budget);
    s.expect_violation = get_bool(doc, "expect_violation")?.unwrap_or(s.expect_violation);
    let explore = &mut s.explore;
    explore.symmetry = get_bool(doc, "symmetry")?.unwrap_or(explore.symmetry);
    explore.eager_inert = get_bool(doc, "eager_inert")?.unwrap_or(explore.eager_inert);
    explore.explore_discovery =
        get_bool(doc, "explore_discovery")?.unwrap_or(explore.explore_discovery);
    explore.preresolve_sink = get_bool(doc, "preresolve_sink")?.unwrap_or(explore.preresolve_sink);

    if let Some(table) = doc.get("churn") {
        s.churn = churn_spec_from_json(table)?;
    }
    s.validity = get_named(doc, "validity")?.unwrap_or(s.validity);
    Ok(s)
}

/// Reads the `inputs` override: a non-empty array of non-negative
/// integers.
fn inputs_from_json(v: &Json) -> Result<Vec<u64>, String> {
    let arr = v.as_arr().ok_or("`inputs` must be an array of integers")?;
    if arr.is_empty() {
        return Err("`inputs` must not be empty".into());
    }
    arr.iter()
        .map(|item| {
            let value = item.as_i64().ok_or("`inputs` entries must be integers")?;
            u64::try_from(value).map_err(|_| "`inputs` entries must be non-negative".to_string())
        })
        .collect()
}

/// Reads `table.key` of the inline table `section` as a list of process
/// ids; an absent key is the empty list.
fn id_list(table: &Json, section: &str, key: &str) -> Result<Vec<u32>, String> {
    let Some(v) = table.get(key) else {
        return Ok(Vec::new());
    };
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("`{section}.{key}` must be an array of ids"))?;
    arr.iter()
        .map(|item| process_id(item, &format!("{section}.{key}")))
        .collect()
}

/// Reads one entry of the id list `key` as a process id: an integer in
/// `0..2^32`. A larger one is an error, not a wrapped id.
fn process_id(item: &Json, key: &str) -> Result<u32, String> {
    let id = item
        .as_i64()
        .filter(|&id| id >= 0)
        .ok_or_else(|| format!("`{key}` ids must be non-negative integers"))?;
    u32::try_from(id).map_err(|_| format!("`{key}` id {id} does not fit in 32 bits"))
}

/// Reads the `faults = { ... }` inline table into a [`FaultSpec`]; unset
/// keys keep [`FaultSpec::default`]. Unknown keys are an error — a typo
/// like `los = 0.3` silently becoming a fault-free run would defeat the
/// campaign.
fn fault_spec_from_json(table: &Json) -> Result<FaultSpec, String> {
    let Json::Obj(fields) = table else {
        return Err("`faults` must be an inline table, e.g. \
                    faults = { loss = 0.3, loss_until = 2000 }"
            .into());
    };
    const KNOWN: &[&str] = &[
        "loss",
        "loss_until",
        "dup",
        "dup_until",
        "extra_delay",
        "extra_delay_until",
        "partition",
        "partition_from",
        "partition_until",
        "crash",
        "crash_at",
        "recover_at",
        "amnesia",
    ];
    for (key, _) in fields {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!(
                "unknown `faults` key `{key}`; known: {}",
                KNOWN.join(", ")
            ));
        }
    }
    let ids = |key: &str| id_list(table, "faults", key);
    let d = FaultSpec::default();
    let spec = FaultSpec {
        loss: get_f64(table, "loss")?.unwrap_or(d.loss),
        loss_until: get_u64(table, "loss_until")?.unwrap_or(d.loss_until),
        dup: get_f64(table, "dup")?.unwrap_or(d.dup),
        dup_until: get_u64(table, "dup_until")?.unwrap_or(d.dup_until),
        extra_delay: get_u64(table, "extra_delay")?.unwrap_or(d.extra_delay),
        extra_delay_until: get_u64(table, "extra_delay_until")?.unwrap_or(d.extra_delay_until),
        partition: ids("partition")?,
        partition_from: get_u64(table, "partition_from")?.unwrap_or(d.partition_from),
        partition_until: get_u64(table, "partition_until")?.unwrap_or(d.partition_until),
        crash: ids("crash")?,
        crash_at: get_u64(table, "crash_at")?.unwrap_or(d.crash_at),
        recover_at: get_u64(table, "recover_at")?,
        amnesia: ids("amnesia")?,
    };
    Ok(spec)
}

/// Reads the `churn = { ... }` inline table into a [`ChurnSpec`]; unset
/// keys keep [`ChurnSpec::default`]. Unknown keys are an error for the
/// same reason as in `faults`: a typo like `join = [9]` silently becoming
/// a churn-free run would defeat the campaign.
fn churn_spec_from_json(table: &Json) -> Result<ChurnSpec, String> {
    let Json::Obj(fields) = table else {
        return Err("`churn` must be an inline table, e.g. \
                    churn = { joins = [9], join_at = 20000 }"
            .into());
    };
    const KNOWN: &[&str] = &[
        "joins",
        "join_at",
        "join_stagger",
        "leaves",
        "leave_at",
        "stale_joiner",
    ];
    for (key, _) in fields {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!(
                "unknown `churn` key `{key}`; known: {}",
                KNOWN.join(", ")
            ));
        }
    }
    let ids = |key: &str| id_list(table, "churn", key);
    let d = ChurnSpec::default();
    Ok(ChurnSpec {
        joins: ids("joins")?,
        join_at: get_u64(table, "join_at")?.unwrap_or(d.join_at),
        join_stagger: get_u64(table, "join_stagger")?.unwrap_or(d.join_stagger),
        leaves: ids("leaves")?,
        leave_at: get_u64(table, "leave_at")?.unwrap_or(d.leave_at),
        stale_joiner: match table.get("stale_joiner") {
            None => d.stale_joiner,
            Some(v) => v
                .as_bool()
                .ok_or("`churn.stale_joiner` must be a boolean")?,
        },
    })
}

fn topology_from_json(doc: &Json) -> Result<TopologySpec, String> {
    let family = doc
        .get("topology")
        .and_then(Json::as_str)
        .ok_or("needs a string `topology`")?;
    let kind = TopologyFamily::from_name(family).ok_or_else(|| {
        format!(
            "unknown topology `{family}`; known: {}",
            TopologyFamily::names(", ")
        )
    })?;
    let req_usize = |key: &str| -> Result<usize, String> {
        get_usize(doc, key)?.ok_or(format!("topology `{family}` needs integer `{key}`"))
    };
    let req_f64 = |key: &str| -> Result<f64, String> {
        get_f64(doc, key)?.ok_or(format!("topology `{family}` needs number `{key}`"))
    };
    Ok(match kind {
        TopologyFamily::Fig1 => TopologySpec::Fig1,
        TopologyFamily::Fig2 => TopologySpec::Fig2,
        TopologyFamily::Fig2Family => TopologySpec::Fig2Family {
            sink: req_usize("sink")?,
            outer: req_usize("outer")?,
        },
        TopologyFamily::RandomKosr => TopologySpec::RandomKosr {
            sink: req_usize("sink")?,
            nonsink: req_usize("nonsink")?,
            k: req_usize("k")?,
            extra_edge_prob: get_f64(doc, "extra_edge_prob")?.unwrap_or(0.0),
        },
        TopologyFamily::ByzantineSafe => TopologySpec::ByzantineSafe {
            sink: req_usize("sink")?,
            nonsink: req_usize("nonsink")?,
        },
        TopologyFamily::ErdosRenyi => TopologySpec::ErdosRenyi {
            n: req_usize("n")?,
            p: req_f64("p")?,
        },
        TopologyFamily::ScaleFree => TopologySpec::ScaleFree {
            n: req_usize("n")?,
            m: req_usize("m")?,
        },
        TopologyFamily::Clustered => TopologySpec::Clustered {
            clusters: req_usize("clusters")?,
            cluster_size: req_usize("cluster_size")?,
            bridges: get_usize(doc, "bridges")?.unwrap_or(1),
            intra_extra_prob: get_f64(doc, "intra_extra_prob")?.unwrap_or(0.0),
            inter_extra_prob: get_f64(doc, "inter_extra_prob")?.unwrap_or(0.0),
        },
        TopologyFamily::PerturbedFig1 => TopologySpec::PerturbedFig1 {
            additions: get_usize(doc, "additions")?.unwrap_or(10),
            deletions: get_usize(doc, "deletions")?.unwrap_or(0),
        },
        TopologyFamily::PerturbedFig2 => TopologySpec::PerturbedFig2 {
            additions: get_usize(doc, "additions")?.unwrap_or(10),
            deletions: get_usize(doc, "deletions")?.unwrap_or(0),
        },
    })
}

/// Reads the fault placement (`faulty`, or `fault_placement` with an
/// optional `fault_count` defaulting to `f`); `None` when neither is set.
fn faults_from_json(doc: &Json, f: usize) -> Result<Option<FaultPlacement>, String> {
    if let Some(ids) = doc.get("faulty") {
        let arr = ids.as_arr().ok_or("`faulty` must be an array of ids")?;
        let out = arr
            .iter()
            .map(|v| process_id(v, "faulty"))
            .collect::<Result<_, _>>()?;
        if doc.get("fault_placement").is_some() {
            return Err("give `faulty` or `fault_placement`, not both".into());
        }
        if doc.get("fault_count").is_some() {
            return Err("give `faulty` or `fault_count`, not both".into());
        }
        return Ok(Some(FaultPlacement::Ids(out)));
    }
    let count = get_usize(doc, "fault_count")?;
    let counted = || {
        PlacementKind::ALL
            .iter()
            .filter(|kind| kind.takes_count())
            .map(Named::name)
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let Some(v) = doc.get("fault_placement") else {
        if count.is_some() {
            return Err(format!(
                "`fault_count` without `fault_placement` would be silently ignored; \
                 add fault_placement = {}",
                counted()
            ));
        }
        return Ok(None);
    };
    let name = v.as_str();
    let kind = name.and_then(PlacementKind::from_name).ok_or_else(|| {
        format!(
            "bad `fault_placement` {name:?}; use {} (or a `faulty` id list)",
            PlacementKind::names(" | ")
        )
    })?;
    if count.is_some() && !kind.takes_count() {
        return Err(format!(
            "`fault_count` would be silently ignored under fault_placement = \"{}\"; \
             drop `fault_count` or use fault_placement = {}",
            kind.name(),
            counted()
        ));
    }
    Ok(Some(kind.with_count(count.unwrap_or(f))))
}

/// Reads the optional mode key `key` by its variants' [`Named`] spellings;
/// any other value is an error listing them.
fn get_named<T: Named>(doc: &Json, key: &str) -> Result<Option<T>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    let name = v.as_str();
    name.and_then(T::from_name)
        .map(Some)
        .ok_or_else(|| format!("bad `{key}` {name:?}; use {}", T::names(" | ")))
}

fn get_bool(doc: &Json, key: &str) -> Result<Option<bool>, String> {
    doc.get(key)
        .map(|v| v.as_bool().ok_or(format!("`{key}` must be a boolean")))
        .transpose()
}

fn get_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => {
            let i = v.as_i64().ok_or(format!("`{key}` must be an integer"))?;
            u64::try_from(i)
                .map(Some)
                .map_err(|_| format!("`{key}` must be non-negative"))
        }
    }
}

fn get_usize(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    Ok(get_u64(doc, key)?.map(|v| v as usize))
}

fn get_u32(doc: &Json, key: &str) -> Result<Option<u32>, String> {
    match get_u64(doc, key)? {
        None => Ok(None),
        Some(v) => u32::try_from(v)
            .map(Some)
            .map_err(|_| format!("`{key}` must fit in 32 bits")),
    }
}

fn get_f64(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or(format!("`{key}` must be a number")),
    }
}

/// Parses the campaign-TOML subset into the common document shape.
///
/// # Errors
///
/// Returns `(line number, message)` on the first malformed line.
pub fn toml_to_json(input: &str) -> Result<Json, String> {
    let mut top: Vec<(String, Json)> = Vec::new();
    let mut scenarios: Vec<Json> = Vec::new();
    let mut current: Option<Vec<(String, Json)>> = None;

    for (lineno, raw) in input.lines().enumerate() {
        let line = strip_comment(raw).trim();
        let err = |msg: &str| format!("toml line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if line == "[[scenario]]" {
            if let Some(done) = current.take() {
                scenarios.push(Json::Obj(done));
            }
            current = Some(Vec::new());
            continue;
        }
        if line.starts_with('[') {
            return Err(err("only [[scenario]] tables are supported"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err("expected `key = value`"))?;
        let key = key.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(err(&format!("bad key `{key}`")));
        }
        let value = parse_toml_value(value.trim()).map_err(|e| err(&e))?;
        let target = current.as_mut().unwrap_or(&mut top);
        if target.iter().any(|(k, _)| k == key) {
            return Err(err(&format!("duplicate key `{key}`")));
        }
        target.push((key.to_string(), value));
    }
    if let Some(done) = current.take() {
        scenarios.push(Json::Obj(done));
    }
    top.push(("scenario".to_string(), Json::Arr(scenarios)));
    Ok(Json::Obj(top))
}

/// Splits on top-level commas, respecting brackets, braces and quotes —
/// the separator logic nested arrays and inline tables share.
fn split_top_level(inner: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut start = 0;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '[' | '{' if !in_string => depth += 1,
            ']' | '}' if !in_string => depth = depth.saturating_sub(1),
            ',' if !in_string && depth == 0 => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&inner[start..]);
    out
}

/// Drops a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(text: &str) -> Result<Json, String> {
    if text.is_empty() {
        return Err("missing value".into());
    }
    if let Some(stripped) = text.strip_prefix('"') {
        let inner = stripped.strip_suffix('"').ok_or("unterminated string")?;
        if inner.contains('"') {
            return Err("strings with embedded quotes are not supported".into());
        }
        return Ok(Json::Str(inner.to_string()));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or("unterminated array")?;
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Json::Arr(Vec::new()));
        }
        let items = split_top_level(inner)
            .into_iter()
            .map(|item| parse_toml_value(item.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Json::Arr(items));
    }
    if let Some(inner) = text.strip_prefix('{') {
        let inner = inner.strip_suffix('}').ok_or("unterminated inline table")?;
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Json::Obj(Vec::new()));
        }
        let mut fields: Vec<(String, Json)> = Vec::new();
        for item in split_top_level(inner) {
            let (key, value) = item
                .split_once('=')
                .ok_or("inline table entries need `key = value`")?;
            let key = key.trim();
            if key.is_empty()
                || !key
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(format!("bad inline-table key `{key}`"));
            }
            if fields.iter().any(|(k, _)| k == key) {
                return Err(format!("duplicate inline-table key `{key}`"));
            }
            fields.push((key.to_string(), parse_toml_value(value.trim())?));
        }
        return Ok(Json::Obj(fields));
    }
    match text {
        "true" => return Ok(Json::Bool(true)),
        "false" => return Ok(Json::Bool(false)),
        _ => {}
    }
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    if let Ok(i) = clean.parse::<i64>() {
        return Ok(Json::Int(i));
    }
    // An integer literal past `i64` must not fall through to `f64`, which
    // would round it and then saturate it on the way back to an integer.
    let digits = clean.strip_prefix(['-', '+']).unwrap_or(&clean);
    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("integer `{text}` out of range"));
    }
    if let Ok(f) = clean.parse::<f64>() {
        return Ok(Json::Float(f));
    }
    Err(format!("cannot parse value `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{NetworkSpec, OracleMode, ProtocolSpec, ValidityMode};

    const EXAMPLE: &str = r#"
# A small campaign.
name = "example"
threads = 2

[[scenario]]
name = "fig2-silent"          # the paper's counterexample graph
topology = "fig2"
f = 1
adversary = "silent"
faulty = [5]
seeds = 4
seed_base = 10
gst = 100
oracle = "require"

[[scenario]]
name = "er-sweep"
topology = "erdos-renyi"
n = 12
p = 0.25
fault_placement = "random"
fault_count = 2
protocol = "stellar-minimal"
oracle = "conditional"
max_ticks = 1_000_000
"#;

    #[test]
    fn parses_the_example_campaign() {
        let c = campaign_from_str(EXAMPLE).unwrap();
        assert_eq!(c.name, "example");
        assert_eq!(c.threads, 2);
        assert_eq!(c.scenarios.len(), 2);

        let s0 = &c.scenarios[0];
        assert_eq!(s0.name, "fig2-silent");
        assert_eq!(s0.topology, TopologySpec::Fig2);
        assert_eq!(s0.faults, FaultPlacement::Ids(vec![5]));
        assert_eq!((s0.seed_base, s0.seeds), (10, 4));
        assert_eq!(s0.network.gst, 100);
        assert_eq!(s0.network.delta, NetworkSpec::default().delta);

        let s1 = &c.scenarios[1];
        assert_eq!(s1.topology, TopologySpec::ErdosRenyi { n: 12, p: 0.25 });
        assert_eq!(s1.faults, FaultPlacement::Random { count: 2 });
        assert_eq!(s1.oracle, OracleMode::Conditional);
        assert_eq!(s1.network.max_ticks, 1_000_000);
    }

    #[test]
    fn json_equivalent_loads_identically() {
        let json = r#"{
            "name": "example", "threads": 2,
            "scenario": [
                {"name": "fig2-silent", "topology": "fig2", "f": 1,
                 "adversary": "silent", "faulty": [5], "seeds": 4,
                 "seed_base": 10, "gst": 100, "oracle": "require"}
            ]
        }"#;
        let c = campaign_from_str(json).unwrap();
        assert_eq!(c.name, "example");
        assert_eq!(c.scenarios[0].faults, FaultPlacement::Ids(vec![5]));
    }

    #[test]
    fn schema_errors_are_descriptive() {
        let cases = [
            ("name = \"x\"", "at least one"),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"nope\"",
                "unknown topology",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"erdos-renyi\"\nn = 5",
                "needs number `p`",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig1\"\noracle = \"maybe\"",
                "bad `oracle`",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig1\"\nfaulty = [1]\nfault_placement = \"sink\"",
                "not both",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig1\"\nfault_count = 2",
                "silently ignored",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig1\"\nfaulty = [1]\nfault_count = 2",
                "not both",
            ),
            // The simulator's network asserts `Δ ≥ 1`, once per run.
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig2\"\ndelta = 0",
                "scenario `s`: `delta` must be at least 1",
            ),
            // So does each topology generator assert its parameters (and
            // an empty Erdős–Rényi graph would pass vacuously).
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"byzantine-safe\"\nsink = 0\nnonsink = 2\nf = 1",
                "scenario `s`: topology `byzantine-safe` needs sink >= 3f + 2 = 5",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"random-kosr\"\nsink = 3\nnonsink = 2\nk = 5",
                "scenario `s`: topology `random-kosr` needs sink > k",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"random-kosr\"\nsink = 3\nnonsink = 2\nk = 0",
                "scenario `s`: topology `random-kosr` needs k >= 1",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"erdos-renyi\"\nn = 0\np = 0.5",
                "scenario `s`: topology `erdos-renyi` needs n >= 1",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"erdos-renyi\"\nn = 5\np = 1.5",
                "scenario `s`: topology `erdos-renyi` needs `p` in [0, 1], got 1.5",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig2-family\"\nsink = 3\nouter = 2",
                "scenario `s`: topology `fig2-family` needs outer >= 3",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"scale-free\"\nn = 3\nm = 4",
                "scenario `s`: topology `scale-free` needs n >= m + 1",
            ),
            (
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"clustered\"\nclusters = 2\ncluster_size = 1",
                "scenario `s`: topology `clustered` needs cluster_size >= 2",
            ),
        ];
        for (input, needle) in cases {
            let err = campaign_from_str(input).unwrap_err();
            assert!(err.contains(needle), "{input:?} → {err}");
        }
    }

    /// A table with only the required keys is [`Scenario::default`] under
    /// its name: the parser writes no default of its own.
    #[test]
    fn a_bare_table_parses_to_the_default_scenario() {
        let c =
            campaign_from_str("name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig2\"\n")
                .unwrap();
        let expected = Scenario {
            name: "s".into(),
            ..Scenario::default()
        };
        assert_eq!(c.scenarios[0], expected);
        assert_eq!(c.mode, CampaignMode::Sample);
    }

    /// Each variant's one spelling loads back as that variant, and a bad
    /// spelling names every good one.
    #[test]
    fn every_mode_name_round_trips_through_the_parser() {
        let load = |top: &str, key: &str| {
            campaign_from_str(&format!(
                "name = \"x\"\n{top}\n[[scenario]]\nname = \"s\"\ntopology = \"fig2\"\n{key}\n"
            ))
        };
        for &mode in CampaignMode::ALL {
            let c = load(&format!("mode = \"{}\"", mode.name()), "").unwrap();
            assert_eq!(c.mode, mode);
        }
        let scenario = |key: &str, name: &str| load("", &format!("{key} = \"{name}\""));
        for &oracle in OracleMode::ALL {
            let c = scenario("oracle", oracle.name()).unwrap();
            assert_eq!(c.scenarios[0].oracle, oracle);
        }
        for &validity in ValidityMode::ALL {
            let c = scenario("validity", validity.name()).unwrap();
            assert_eq!(c.scenarios[0].validity, validity);
        }
        for &protocol in ProtocolSpec::ALL {
            let c = scenario("protocol", protocol.name()).unwrap();
            assert_eq!(c.scenarios[0].protocol, protocol);
        }
        for &family in TopologyFamily::ALL {
            let params = match family {
                TopologyFamily::Fig1
                | TopologyFamily::Fig2
                | TopologyFamily::PerturbedFig1
                | TopologyFamily::PerturbedFig2 => "",
                TopologyFamily::Fig2Family => "sink = 3\nouter = 3",
                TopologyFamily::RandomKosr => "sink = 4\nnonsink = 2\nk = 1",
                TopologyFamily::ByzantineSafe => "sink = 5\nnonsink = 2",
                TopologyFamily::ErdosRenyi => "n = 5\np = 0.5",
                TopologyFamily::ScaleFree => "n = 5\nm = 2",
                TopologyFamily::Clustered => "clusters = 2\ncluster_size = 2",
            };
            let c = campaign_from_str(&format!(
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"{}\"\n{params}\n",
                family.name()
            ))
            .unwrap();
            assert_eq!(c.scenarios[0].topology.family(), family);
        }
        for &kind in PlacementKind::ALL {
            let c = scenario("fault_placement", kind.name()).unwrap();
            assert_eq!(c.scenarios[0].faults, kind.with_count(1));
        }
        assert_eq!(
            load("mode = \"wat\"", "").unwrap_err(),
            "bad `mode` Some(\"wat\"); use sample | explore"
        );
        assert_eq!(
            campaign_from_str("name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"wat\"\n")
                .unwrap_err(),
            "scenario #1: unknown topology `wat`; known: fig1, fig2, fig2-family, random-kosr, \
             byzantine-safe, erdos-renyi, scale-free, clustered, perturbed-fig1, perturbed-fig2"
        );
        assert_eq!(
            scenario("fault_placement", "wat").unwrap_err(),
            "scenario #1: bad `fault_placement` Some(\"wat\"); use none | generator | random | \
             sink | nonsink (or a `faulty` id list)"
        );
        let cases = [
            ("oracle", "use require | conditional | observe"),
            ("validity", "use strong | weak | external"),
            (
                "protocol",
                "use stellar-minimal | stellar-local-all-but-one | stellar-local-survive-f | \
                 stellar-local-f-plus-one | bft-cup",
            ),
        ];
        for (key, choices) in cases {
            assert_eq!(
                scenario(key, "wat").unwrap_err(),
                format!("scenario #1: bad `{key}` Some(\"wat\"); {choices}")
            );
            let not_a_string = load("", &format!("{key} = 3")).unwrap_err();
            assert_eq!(
                not_a_string,
                format!("scenario #1: bad `{key}` None; {choices}")
            );
        }
    }

    /// `none` and `generator` draw no faults, so a `fault_count` beside
    /// them is refused, naming both keys, instead of dropped.
    #[test]
    fn a_fault_count_the_placement_ignores_is_an_error() {
        for kind in ["none", "generator"] {
            let err = campaign_from_str(&format!(
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig2\"\n\
                 fault_placement = \"{kind}\"\nfault_count = 2\n"
            ))
            .unwrap_err();
            assert_eq!(
                err,
                format!(
                    "scenario #1: `fault_count` would be silently ignored under \
                     fault_placement = \"{kind}\"; drop `fault_count` or use \
                     fault_placement = random | sink | nonsink"
                )
            );
        }
        let err = campaign_from_str(
            "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig2\"\nfault_count = 2\n",
        )
        .unwrap_err();
        assert!(
            err.ends_with("add fault_placement = random | sink | nonsink"),
            "{err}"
        );
        for kind in ["random", "sink", "nonsink"] {
            let c = campaign_from_str(&format!(
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig2\"\n\
                 fault_placement = \"{kind}\"\nfault_count = 2\n"
            ))
            .unwrap();
            let kind = PlacementKind::from_name(kind).unwrap();
            assert_eq!(c.scenarios[0].faults, kind.with_count(2));
        }
    }

    /// The simulator addresses at most `MAX_PROCESSES` processes; every
    /// sized family is held to that at parse time, sums and products of
    /// its parameters saturating instead of wrapping.
    #[test]
    fn oversized_topologies_are_parse_errors() {
        let big = i64::MAX;
        let cases = [
            ("fig2-family", "sink = 65533\nouter = 3".to_string(), 65_536),
            (
                "random-kosr",
                "sink = 65535\nnonsink = 1\nk = 1".into(),
                65_536,
            ),
            (
                "byzantine-safe",
                format!("sink = {big}\nnonsink = {big}"),
                2 * big as usize,
            ),
            ("erdos-renyi", "n = 65536\np = 0.5".into(), 65_536),
            ("scale-free", "n = 100000\nm = 2".into(), 100_000),
            (
                "clustered",
                format!("clusters = {big}\ncluster_size = 4"),
                usize::MAX,
            ),
        ];
        for (family, keys, n) in cases {
            let input = format!(
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"{family}\"\n{keys}"
            );
            let err = campaign_from_str(&input).unwrap_err();
            let needle =
                format!("scenario `s`: topology `{family}` needs at most 65535 processes, got {n}");
            assert!(err.contains(&needle), "{input:?} → {err}");
        }
        // The largest system the simulator addresses still loads.
        let input = "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"erdos-renyi\"\nn = 65535\np = 0.5";
        assert!(campaign_from_str(input).is_ok());
    }

    #[test]
    fn explore_mode_accepts_bftcup_scenarios() {
        // PR 4 rejected BFT-CUP at load time; the checker has since grown
        // a BFT-CUP driver, so the supported path must load cleanly.
        let text = r#"
name = "x"
mode = "explore"

[[scenario]]
name = "fine"
topology = "fig1"

[[scenario]]
name = "baseline-run"
topology = "fig1"
protocol = "bft-cup"
"#;
        let c = campaign_from_str(text).unwrap();
        assert_eq!(c.scenarios[1].protocol, ProtocolSpec::BftCup);
        // Reduction knobs parse.
        let knobs = r#"
name = "x"
mode = "explore"

[[scenario]]
name = "s"
topology = "fig1"
symmetry = false
eager_inert = false
explore_discovery = true
"#;
        let c = campaign_from_str(knobs).unwrap();
        assert!(!c.scenarios[0].explore.symmetry);
        assert!(!c.scenarios[0].explore.eager_inert);
        assert!(c.scenarios[0].explore.explore_discovery);
    }

    #[test]
    fn explore_mode_rejects_unsupported_knob_combinations() {
        // Explicit symmetry with an equivocating leader is supported
        // since the victim-split-aware quotient (the canonical hash
        // permutes the variant index with the nodes) — it must load.
        let text = r#"
name = "x"
mode = "explore"

[[scenario]]
name = "equiv-leader"
topology = "fig1"
protocol = "bft-cup"
adversary = "equivocate"
faulty = [0]
symmetry = true
"#;
        assert!(campaign_from_str(text).is_ok());
        let scp = text.replace("protocol = \"bft-cup\"\n", "");
        assert!(campaign_from_str(&scp).is_ok());

        // Removed keys are an error in either mode, not a silent no-op:
        // an old file asking for `search = "dfs"` must not quietly run
        // something else.
        for (key, value) in [
            ("search", "\"dfs\""),
            ("sleep_sets", "true"),
            ("frontier_depth", "3"),
            ("bft_view_timeout", "400"),
        ] {
            for mode in ["explore", "sample"] {
                let text = format!(
                    "name = \"x\"\nmode = \"{mode}\"\n[[scenario]]\nname = \"old-file\"\n\
                     topology = \"fig1\"\n{key} = {value}\n"
                );
                let err = campaign_from_str(&text).unwrap_err();
                assert!(err.contains("`old-file`"), "{err}");
                assert!(err.contains(&format!("`{key}`")), "{err}");
                assert!(
                    err.contains("removed: the explorer has one search discipline"),
                    "{err}"
                );
            }
        }

        // explore_discovery outside stellar-minimal.
        let text = r#"
name = "x"
mode = "explore"

[[scenario]]
name = "cup-discovery"
topology = "fig1"
protocol = "bft-cup"
explore_discovery = true
"#;
        let err = campaign_from_str(text).unwrap_err();
        assert!(err.contains("`cup-discovery`"), "{err}");
        assert!(err.contains("`explore_discovery = true`"), "{err}");
        assert!(err.contains("stellar-minimal"), "{err}");

        // explore_discovery with a value-injecting adversary.
        let text = r#"
name = "x"
mode = "explore"

[[scenario]]
name = "stack-equiv"
topology = "fig1"
adversary = "equivocate"
faulty = [0]
explore_discovery = true
"#;
        let err = campaign_from_str(text).unwrap_err();
        assert!(err.contains("`stack-equiv`"), "{err}");
        assert!(err.contains("equivocate"), "{err}");
    }

    #[test]
    fn faults_inline_table_parses_and_rejects_typos() {
        let text = r#"
name = "x"

[[scenario]]
name = "lossy"
topology = "fig2"
faulty = [5]
faults = { loss = 0.3, loss_until = 2000, partition = [0, 1], partition_from = 50, partition_until = 900, crash = [2], crash_at = 300, recover_at = 2500 }
"#;
        let c = campaign_from_str(text).unwrap();
        let spec = &c.scenarios[0].fault_plan;
        assert_eq!((spec.loss, spec.loss_until), (0.3, 2000));
        assert_eq!(spec.partition, vec![0, 1]);
        assert_eq!((spec.partition_from, spec.partition_until), (50, 900));
        assert_eq!((spec.crash.clone(), spec.crash_at), (vec![2], 300));
        assert_eq!(spec.recover_at, Some(2500));
        // Unstated windows never heal; unstated knobs stay zero.
        assert_eq!(spec.dup, 0.0);
        assert_eq!(spec.loss_until, 2000);
        assert!(spec.to_plan().heal_tick().is_some());
        // A typo'd key is an error listing the known ones, not a
        // silently inert fault plan.
        let typo = text.replace("loss = 0.3", "los = 0.3");
        let err = campaign_from_str(&typo).unwrap_err();
        assert!(err.contains("unknown `faults` key `los`"), "{err}");
        assert!(err.contains("loss_until"), "{err}");
        // No `faults` key at all is the zero plan.
        let plain = campaign_from_str(
            "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig2\"\nfaulty = [5]\n",
        )
        .unwrap();
        assert!(plain.scenarios[0].fault_plan.to_plan().is_zero());
    }

    #[test]
    fn preresolve_sink_parses_and_is_bftcup_only() {
        let text = r#"
name = "x"
mode = "explore"

[[scenario]]
name = "handoff"
topology = "fig1"
protocol = "bft-cup"
preresolve_sink = true
timer_budget = 2
"#;
        let c = campaign_from_str(text).unwrap();
        assert!(c.scenarios[0].explore.preresolve_sink);
        assert_eq!(c.scenarios[0].explore.timer_budget, 2);
        // Default off.
        let without = text.replace("preresolve_sink = true\n", "");
        let c = campaign_from_str(&without).unwrap();
        assert!(!c.scenarios[0].explore.preresolve_sink);
        // The knob skips the in-schedule discovery phase, which only
        // BFT-CUP runs — the SCP drivers resolve the sink through their
        // pre-computed slices already.
        let scp = text.replace("protocol = \"bft-cup\"\n", "");
        let err = campaign_from_str(&scp).unwrap_err();
        assert!(err.contains("`handoff`"), "{err}");
        assert!(err.contains("`preresolve_sink = true`"), "{err}");
        assert!(err.contains("bft-cup"), "{err}");
    }

    #[test]
    fn toml_syntax_errors_carry_line_numbers() {
        let err = campaign_from_str("name = \"x\"\nbad line\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = campaign_from_str("name = \"x\"\n[table]\n").unwrap_err();
        assert!(err.contains("[[scenario]]"), "{err}");
        let err = campaign_from_str("name = \"x\"\nname = \"y\"\n").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn out_of_range_integers_are_errors_not_saturated() {
        for literal in [
            "99999999999999999999",
            "-9223372036854775809",
            "1_000_000_000_000_000_000_000",
        ] {
            let err = parse_toml_value(literal).unwrap_err();
            assert!(err.contains("out of range"), "{literal}: {err}");
            let text = format!("name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig1\"\nseeds = {literal}\n");
            let err = campaign_from_str(&text).unwrap_err();
            assert!(
                err.contains("line 5") && err.contains("out of range"),
                "{err}"
            );
        }
        assert_eq!(
            parse_toml_value("-9223372036854775808"),
            Ok(Json::Int(i64::MIN))
        );
        assert_eq!(
            parse_toml_value("+9_223_372_036_854_775_807"),
            Ok(Json::Int(i64::MAX))
        );
        // A float literal is still a float, however large.
        assert_eq!(parse_toml_value("1e20"), Ok(Json::Float(1e20)));
    }

    /// An id past `u32` is refused by name, not wrapped onto a small one
    /// (`2^32 + 5` used to load as process 5).
    #[test]
    fn process_ids_past_32_bits_are_errors_not_wrapped() {
        let cases = [
            (
                "faulty = [4294967301]",
                "`faulty` id 4294967301 does not fit in 32 bits",
            ),
            (
                "faults = { crash = [4294967298], crash_at = 100 }",
                "`faults.crash` id 4294967298 does not fit in 32 bits",
            ),
            (
                "churn = { joins = [4294967296] }",
                "`churn.joins` id 4294967296 does not fit in 32 bits",
            ),
        ];
        for (key, message) in cases {
            let input = format!(
                "name = \"x\"\n[[scenario]]\nname = \"s\"\ntopology = \"fig2\"\nf = 1\n{key}\n"
            );
            assert_eq!(
                campaign_from_str(&input).unwrap_err(),
                format!("scenario #1: {message}")
            );
        }
    }

    #[test]
    fn comments_respect_strings() {
        assert_eq!(strip_comment("a = \"x # y\" # real"), "a = \"x # y\" ");
        assert_eq!(strip_comment("# whole line"), "");
    }
}
