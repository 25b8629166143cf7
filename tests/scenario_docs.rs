//! End-to-end over the declarative experiment pipeline: the committed
//! `experiments/*.scn` documents load through the public `sched-bench`
//! API, execute on real backends, and satisfy the invariant blocks they
//! declare.
//!
//! This is the workspace-level counterpart of the crate-internal parity
//! tests: it goes through [`sched_bench::load_dir`] exactly like an
//! out-of-tree author would (`experiments --json --scenarios DIR` uses the
//! same entry point).

use std::path::Path;

#[test]
fn the_experiments_directory_loads_and_matches_the_builtin_catalog() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments");
    let loaded = sched_bench::load_dir(&dir).expect("experiments/*.scn must load");
    // `load_dir` must agree with the compiled-in catalog the binaries use:
    // the same documents (directory order is lexical, the catalog's is
    // numeric, so match by scenario name rather than position).
    let builtin = sched_bench::builtin();
    assert_eq!(loaded.len(), builtin.len());
    for from_disk in &loaded {
        let compiled_in = builtin
            .iter()
            .find(|s| s.name == from_disk.name)
            .unwrap_or_else(|| panic!("`{}` is not in the builtin catalog", from_disk.name));
        assert_eq!(from_disk, compiled_in, "{} diverges", from_disk.name);
    }
}

#[test]
fn an_authored_document_runs_end_to_end_and_honors_its_expect_block() {
    // What the README's "Authoring experiments" section walks through:
    // write a document, load it, run it, check the declared invariants.
    let source = r#"
# Four cores, everything piled on the last one.
scenario "authored: hot tail of four" {
    experiment e2;
    topology flat(4);
    loads [0, 0, 0, 9];
    policy listing1 {
        metric threads;
        filter = victim.load - self.load >= 2;
        choose = max victim.load;
        steal  = 1;
    }
    driver replay;
    budget 96;
    backends ["model", "rq-deque"];
    expect {
        work_conservation;
        conservation_of_tasks;
        non_inversion;
    }
}
"#;
    let scenarios = sched_bench::load_str(source, "inline").expect("document must load");
    assert_eq!(scenarios.len(), 1);
    let scenario = &scenarios[0];
    assert_eq!(scenario.loads, vec![0, 0, 0, 9]);

    let runner = sched_bench::ExperimentRunner::with_all_backends();
    let records = runner.run(scenario.clone());
    let backends: Vec<&str> = records.iter().map(|r| r.backend).collect();
    assert_eq!(backends, vec!["model", "rq-deque"], "the backend matrix must filter");

    let violations = sched_bench::check_records(scenario, &records);
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(violations.is_empty(), "declared invariants must hold: {rendered:#?}");
}

#[test]
fn a_committed_scenario_satisfies_its_declared_invariants_on_every_backend() {
    // The fast deterministic one: Listing 1 replay on eight cores (e2).
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments");
    let scenario = sched_bench::load_dir(&dir)
        .expect("experiments/*.scn must load")
        .into_iter()
        .find(|s| s.experiment == "e2")
        .expect("e2 is committed");
    let (records, violations) = sched_bench::fuzz::check_scenario(&scenario);
    assert!(records > 0);
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(violations.is_empty(), "{rendered:#?}");
}
