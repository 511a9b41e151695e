//! The rediscovery gate (live workspace): facts that earlier PRs
//! hand-encoded as comments next to `[policy] lock_order` must now
//! fall out of the interprocedural analysis with zero policy hints —
//! `callgraph::analyze` never reads `lock_order` or `[[allow]]`, so
//! everything asserted here is derived purely from the call graph.
//!
//! The two facts under test:
//!
//! 1. `SlotMap::with_conn` holds the per-connection `conn` lock while
//!    invoking caller-supplied callbacks, and the client's event
//!    callback acquires `stats` — so `conn -> stats` is a real edge,
//!    carried through a callback parameter across crate-internal
//!    function boundaries.
//! 2. The supplier's DataCache (`StageCache`) acquires `staged` inside
//!    its own methods; every staging-path caller (the stage-job worker,
//!    the serve path) therefore holds `staged` transitively even though
//!    no `lock(&…staged)` appears in its own body.

use std::path::Path;
use xtask::policy::Policy;
use xtask::{callgraph, scan_analysis_files, Config};

fn live_analysis() -> callgraph::Analysis {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .expect("workspace root");
    // The policy supplies only the scan scope (member opt-outs and the
    // sync-primitive layer); lock ranking and allows never reach the
    // call-graph pass.
    let policy = Policy::load(&root.join("crates/xtask/allow.toml")).expect("policy loads");
    let config = Config::for_workspace(&root, &policy).expect("workspace members discovered");
    let files = scan_analysis_files(&config).expect("analysis scope scans");
    callgraph::analyze(&files, &policy.primitive_files)
}

#[test]
fn rediscovers_conn_to_stats_callback_edge() {
    let a = live_analysis();
    let edge = a
        .edges
        .iter()
        .find(|e| e.held == "conn" && e.acquired == "stats")
        .unwrap_or_else(|| {
            panic!(
                "conn -> stats must be discovered through the with_conn callback; edges found: {:?}",
                a.edges
                    .iter()
                    .map(|e| format!("{} -> {}", e.held, e.acquired))
                    .collect::<Vec<_>>()
            )
        });
    assert!(
        edge.chain.iter().any(|frame| frame.contains("with_conn")),
        "the witness chain walks through the callback-invoking wrapper: {:?}",
        edge.chain
    );
}

#[test]
fn rediscovers_stage_cache_acquisition_in_callers() {
    let a = live_analysis();
    // `StageCache::covers` itself acquires `staged` directly…
    let covers = a
        .transitive_acquires
        .iter()
        .find(|(f, _)| f.ends_with("StageCache::covers"))
        .unwrap_or_else(|| panic!("StageCache::covers analyzed: {:?}", a.transitive_acquires.keys()));
    assert!(
        covers.1.contains_key("staged"),
        "StageCache::covers acquires staged: {:?}",
        covers.1.keys()
    );
    // …and both staging-path callers inherit the acquisition. Neither
    // body mentions the `staged` lock, so each witness chain MUST pass
    // through a `StageCache` method.
    for caller in ["run_stage_job", "serve"] {
        let (name, acquires) = a
            .transitive_acquires
            .iter()
            .find(|(f, _)| f.as_str() == caller || f.ends_with(&format!("::{caller}")))
            .unwrap_or_else(|| panic!("{caller} analyzed"));
        let chain = acquires
            .get("staged")
            .unwrap_or_else(|| panic!("{name} transitively acquires staged: {:?}", acquires.keys()));
        assert!(
            chain.iter().any(|frame| frame.contains("StageCache::")),
            "{name}'s witness chain passes through StageCache: {chain:?}"
        );
    }
}

/// The full flagship edge, end to end: the callback-carried
/// `conn -> stats` acquisition is visible to the lock-order lint with
/// an EMPTY documented order — it surfaces as an undocumented-lock
/// finding, proving the lint consumes discovered edges rather than
/// policy annotations.
#[test]
fn empty_lock_order_surfaces_discovered_edges_as_undocumented() {
    let a = live_analysis();
    let policy = Policy::parse("[policy]\nlock_order = []\n").expect("empty policy");
    let findings = xtask::lints::lockorder::check(&a.edges, &policy);
    // The supplier's MOF store is absent: it is immutable and has no
    // lock, so no edge can involve it — the edge set above is the
    // complete nesting map.
    for lock in ["conn", "stats", "inner", "objects"] {
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains(&format!("`{lock}`"))),
            "`{lock}` participates in discovered nesting, so an empty order must flag it"
        );
    }
}
