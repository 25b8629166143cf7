//! The experiment catalog: the committed scenario documents, loaded.
//!
//! Every catalogued experiment lives in `experiments/eN.scn` at the
//! workspace root, and those files are the *only* copy of the catalog: one
//! or more `scenario` blocks each, holding the topology, load vector,
//! policy (a named recipe or an inline DSL program), backend matrix,
//! arrival driver and expected-invariant block.  What the grammar parses —
//! a [`Scenario`] — is what the backends of [`crate::runner`] execute;
//! there is no second representation to convert to, and the printer
//! ([`sched_dsl::print_doc`]) regenerates a file from what the parser read
//! (pinned: every committed file is in the printer's canonical form).
//!
//! The loader API:
//!
//! * [`builtin`] parses the embedded copies of the workspace documents
//!   (compiled in with `include_str!`, so the binary needs no filesystem),
//!   once per process — the catalog every harness entry point runs; [`spec`] and
//!   [`specs_of`] pick one experiment's scenarios out of it;
//! * [`load_dir`]/[`load_str`] load *external* documents at runtime, which
//!   is how `experiments --scenarios DIR` and the fuzzer's repro files
//!   execute scenarios that were never compiled in.
//!
//! Every loader runs [`validate`] on each scenario and rejects a second
//! scenario with the same `experiment | scenario` record key anywhere in
//! what one call loads.

use std::path::Path;
use std::sync::OnceLock;

use sched_dsl::Scenario;

use crate::experiments::ExperimentId;
use crate::runner::{validate, SpecError};

/// The embedded sources of the builtin catalog, one `(file name, source)`
/// pair per experiment, in index order.  These are compiled-in copies of
/// the workspace's `experiments/*.scn` files.
fn builtin_sources() -> Vec<(&'static str, &'static str)> {
    macro_rules! sources {
        ($($name:literal),* $(,)?) => {
            vec![$(($name, include_str!(concat!("../../../experiments/", $name)))),*]
        };
    }
    sources![
        "e1.scn", "e2.scn", "e3.scn", "e4.scn", "e5.scn", "e6.scn", "e7.scn", "e8.scn", "e9.scn",
        "e10.scn", "e11.scn", "e12.scn", "e13.scn", "e14.scn", "e15.scn", "e16.scn", "e17.scn",
        "e18.scn", "e19.scn", "e20.scn", "e21.scn", "e22.scn", "e23.scn", "e24.scn", "e25.scn",
        "e26.scn",
    ]
}

/// The builtin catalog, in index order — the unified runner's input,
/// parsed once per process.  Panics if an embedded document is invalid:
/// the workspace's own scenario files are part of the build, and a broken
/// one is a build defect, not a runtime condition.
pub fn builtin() -> &'static [Scenario] {
    static BUILTIN: OnceLock<Vec<Scenario>> = OnceLock::new();
    BUILTIN.get_or_init(|| {
        let mut loaded = Vec::new();
        for (name, source) in builtin_sources() {
            load_into(&mut loaded, source, name)
                .unwrap_or_else(|e| panic!("builtin scenario {name}: {e}"));
        }
        loaded
    })
}

/// The first catalogued scenario of one experiment (E14/E15/E17/E18/E21/E23
/// have several; use [`specs_of`] for all of them).
pub fn spec(id: ExperimentId) -> Scenario {
    builtin().iter().find(|s| s.experiment == id.key()).cloned().expect("catalogued experiment")
}

/// Every catalogued scenario of one experiment, in catalog order.
pub fn specs_of(id: ExperimentId) -> Vec<Scenario> {
    builtin().iter().filter(|s| s.experiment == id.key()).cloned().collect()
}

/// Parses and validates the scenarios of `source` onto the end of `loaded`.
/// The experiment key is normalised here, once: a loaded scenario's
/// `experiment` is lower-case, and so is every record it produces.
fn load_into(loaded: &mut Vec<Scenario>, source: &str, origin: &str) -> Result<(), SpecError> {
    let located = |e: &dyn std::fmt::Display| SpecError::new(format!("{origin}: {e}"));
    for mut scenario in sched_dsl::parse_doc(source).map_err(|e| located(&e))? {
        scenario.experiment.make_ascii_lowercase();
        validate(&scenario).map_err(|e| located(&e))?;
        let duplicate = loaded
            .iter()
            .any(|prior| prior.name == scenario.name && prior.experiment == scenario.experiment);
        if duplicate {
            // Records are keyed `experiment | scenario | backend`; two
            // scenarios with the same key would make records the records
            // contract rejects as duplicates.
            return Err(located(&format!(
                "duplicate scenario `{}` for {}",
                scenario.name, scenario.experiment
            )));
        }
        loaded.push(scenario);
    }
    Ok(())
}

/// Parses scenario documents from `source` (one or more `scenario` blocks)
/// and validates each.  `origin` labels errors.
pub fn load_str(source: &str, origin: &str) -> Result<Vec<Scenario>, SpecError> {
    let mut loaded = Vec::new();
    load_into(&mut loaded, source, origin)?;
    Ok(loaded)
}

/// Loads every `*.scn` document in `dir` (sorted by file name).
pub fn load_dir(dir: &Path) -> Result<Vec<Scenario>, SpecError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| SpecError::new(format!("{}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    paths.sort();
    let mut loaded = Vec::new();
    for path in paths {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| SpecError::new(format!("{}: {e}", path.display())))?;
        load_into(&mut loaded, &source, &path.display().to_string())?;
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::build_topology;
    use sched_dsl::Driver;

    /// The committed files are the only copy of the catalog, so what pins
    /// them is their own form: each is its two header lines followed by
    /// exactly what the printer makes of what the parser reads.  A file
    /// hand-edited out of that form fails here; regenerating one is
    /// `print_doc(parse_doc(file))` under the same header.
    #[test]
    fn committed_documents_are_in_canonical_form() {
        for ((name, source), id) in builtin_sources().into_iter().zip(ExperimentId::all()) {
            let scenarios = sched_dsl::parse_doc(source).expect(name);
            let canonical = format!(
                "# {}\n# Declarative scenario document; the sched-bench catalog loads this at \
                 build time.\n\n{}",
                id.title().trim(),
                sched_dsl::print_doc(&scenarios)
            );
            assert_eq!(source, canonical, "{name} is not in canonical form");
            for scenario in &scenarios {
                assert_eq!(ExperimentId::parse(&scenario.experiment), Some(id), "{name}");
                assert!(!scenario.expect.is_empty(), "`{}` must claim an invariant", scenario.name);
            }
        }
    }

    #[test]
    fn catalog_covers_every_experiment() {
        let specs = builtin();
        assert_eq!(specs.len(), 49);
        let mut seen = std::collections::BTreeSet::new();
        for spec in specs {
            assert!(
                seen.insert(format!("{}|{}", spec.experiment, spec.name)),
                "duplicate scenario {} `{}`",
                spec.experiment,
                spec.name
            );
            assert_eq!(
                build_topology(spec.topology).nr_cpus(),
                spec.loads.len(),
                "{}: load vector must match the machine",
                spec.experiment
            );
            // A workload driver generates its threads itself, and an
            // open-loop stream arrives entirely through the generator;
            // every other driver replays the load vector, which must hold
            // some.
            assert!(
                spec.nr_threads() > 0
                    || matches!(spec.driver, Driver::Workload { .. } | Driver::OpenLoop(_)),
                "{}: a scenario needs threads",
                spec.experiment
            );
        }
        let of = |id| specs.iter().filter(move |s| ExperimentId::parse(&s.experiment) == Some(id));
        assert!(
            ExperimentId::all().into_iter().all(|id| of(id).count() > 0),
            "every experiment is catalogued"
        );
        let count = |id| of(id).count();
        assert_eq!(count(ExperimentId::E14), 3, "E14 compares three policies");
        assert_eq!(count(ExperimentId::E15), 2, "E15 compares two policies");
        assert_eq!(count(ExperimentId::E17), 2, "E17 sweeps two criteria");
        assert_eq!(count(ExperimentId::E18), 2, "E18 compares two criteria");
        assert_eq!(count(ExperimentId::E21), 8, "E21 sweeps four half-lives on two axes");
        assert_eq!(count(ExperimentId::E23), 10, "E23 sweeps five batch sizes on two shapes");
        assert_eq!(count(ExperimentId::E24), 1, "E24 is the event-engine scaling scenario");
        assert_eq!(count(ExperimentId::E25), 1, "E25 is the trace-only detection storm");
        assert_eq!(count(ExperimentId::E26), 3, "E26 climbs three open-loop rungs");
        for spec in of(ExperimentId::E26) {
            assert_eq!(
                spec.backends.as_deref(),
                Some(&["exec".to_string()][..]),
                "E26 runs on the executor alone"
            );
            assert!(matches!(spec.driver, Driver::OpenLoop(_)), "E26 rungs are open-loop");
        }
        for spec in of(ExperimentId::E24) {
            assert_eq!(
                spec.backends.as_deref(),
                Some(&["sim".to_string(), "sim-event".into()][..])
            );
            assert!(spec.events.is_some(), "E24 declares the event budget that caps the tick run");
        }
        for spec in of(ExperimentId::E23) {
            assert!(spec.batch.is_some(), "E23 specs carry a batch size");
        }
    }

    #[test]
    fn loader_rejects_duplicates_and_bad_documents() {
        let duplicate = r#"
scenario "twin" { experiment e2; topology flat(2); loads [2, 0]; policy listing1; budget 8; }
scenario "twin" { experiment e2; topology flat(2); loads [2, 0]; policy listing1; budget 8; }
"#;
        let err = load_str(duplicate, "test").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // The loader lower-cases the experiment key, so a twin that only
        // differs in its case is still a twin.
        let shouting = duplicate.replacen("experiment e2", "experiment E2", 1);
        let err = load_str(&shouting, "test").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        let single = shouting.trim().lines().next().expect("the first twin");
        assert_eq!(load_str(single, "test").expect("one scenario loads")[0].experiment, "e2");

        let unknown_policy =
            r#"scenario "x" { experiment e2; topology flat(2); loads [2, 0]; policy bogus; }"#;
        let err = load_str(unknown_policy, "test").unwrap_err();
        assert!(err.to_string().contains("unknown policy"), "{err}");

        let unknown_experiment =
            r#"scenario "x" { experiment e99; topology flat(2); loads [2, 0]; policy listing1; }"#;
        let err = load_str(unknown_experiment, "test").unwrap_err();
        assert!(err.to_string().contains("unknown experiment"), "{err}");

        let wrong_size =
            r#"scenario "x" { experiment e2; topology flat(4); loads [2, 0]; policy listing1; }"#;
        let err = load_str(wrong_size, "test").unwrap_err();
        assert!(err.to_string().contains("cores"), "{err}");

        // The sizes are compared as declared: a machine far too large to
        // build is refused for its load vector, not attempted.
        let huge = r#"scenario "x" { experiment e2; topology flat(100000000000); loads [1]; policy listing1; }"#;
        let err = load_str(huge, "test").unwrap_err();
        assert!(err.to_string().contains("100000000000 cores"), "{err}");

        // The duplicate check covers everything one call loads, also when
        // the twins sit in two files of one directory.
        let dir = std::env::temp_dir().join(format!("sched-bench-twins-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a scratch directory");
        let twin = duplicate.trim().lines().next().expect("the first twin");
        for file in ["a.scn", "b.scn"] {
            std::fs::write(dir.join(file), twin).expect("a scratch document");
        }
        let outcome = load_dir(&dir);
        std::fs::remove_dir_all(&dir).expect("the scratch directory goes away");
        let err = outcome.unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        assert!(err.to_string().contains("b.scn"), "{err}");
    }
}
