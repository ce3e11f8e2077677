//! The scenario-corpus contract: generation is byte-deterministic, the
//! emitted documents round-trip through the `.ftes` parser losslessly,
//! the batch driver's CSV is byte-identical for any worker count, and the
//! exemplars checked into `specs/` are pinned generator output (format
//! drift or a re-drawn corpus fails here, not in a downstream consumer).

use ftes::corpus::{run_corpus, CorpusJob, CorpusRunConfig, CorpusVerdict, CORPUS_CSV_HEADER};
use ftes::gen::corpus::{generate_corpus, generate_family, Family, DEFAULT_CORPUS_SEED};
use ftes::opt::{SearchConfig, Strategy};
use ftes::FlowConfig;
use ftes_cli::parse_spec;
use std::path::PathBuf;

#[test]
fn default_corpus_spans_the_advertised_families_and_size() {
    let corpus = generate_corpus(&Family::ALL, DEFAULT_CORPUS_SEED).unwrap();
    assert!(corpus.len() >= 25, "default corpus has only {} specs", corpus.len());
    let families: std::collections::HashSet<_> = corpus.iter().map(|s| s.family).collect();
    assert!(families.len() >= 5, "corpus spans only {} families", families.len());
}

#[test]
fn generation_is_byte_deterministic_in_family_and_seed() {
    let a = generate_corpus(&Family::ALL, DEFAULT_CORPUS_SEED).unwrap();
    let b = generate_corpus(&Family::ALL, DEFAULT_CORPUS_SEED).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.file_name, y.file_name);
        assert_eq!(x.text, y.text, "{}", x.file_name);
    }
    let c = generate_corpus(&Family::ALL, DEFAULT_CORPUS_SEED + 1).unwrap();
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.text != y.text),
        "the master seed must reach every family's draw"
    );
}

#[test]
fn emitted_documents_round_trip_through_the_parser() {
    for spec in generate_corpus(&Family::ALL, DEFAULT_CORPUS_SEED).unwrap() {
        let parsed = parse_spec(&spec.text)
            .unwrap_or_else(|e| panic!("{}: generated document must parse: {e}", spec.file_name));
        // The parsed system is exactly the generated one: the application
        // compares structurally (names, WCET rows, overheads, edges,
        // deadline), and the platform/strategy/fault parameters match the
        // member metadata.
        let member = Family::from_name(spec.family.name()).unwrap().members();
        let regenerated =
            ftes::gen::generate_application(&member[spec.index].config, spec.member_seed).unwrap();
        assert_eq!(parsed.app, regenerated, "{}: lossless round-trip", spec.file_name);
        assert_eq!(parsed.app.process_count(), spec.processes, "{}", spec.file_name);
        assert_eq!(parsed.platform.architecture().node_count(), spec.nodes, "{}", spec.file_name);
        assert_eq!(parsed.fault_model.k(), spec.k, "{}", spec.file_name);
        let strategy = match parsed.strategy {
            Strategy::Mxr => "mxr",
            Strategy::Mx => "mx",
            Strategy::Mr => "mr",
            Strategy::Sfx => "sfx",
        };
        assert_eq!(strategy, spec.strategy, "{}", spec.file_name);
        // The identity header names the member, so a checked-in exemplar
        // can always be traced back to its family/index/master-seed.
        assert_eq!(
            CorpusJob::family_from_header(&spec.text),
            Some(spec.family.name()),
            "{}",
            spec.file_name
        );
    }
}

/// Same corpus + seed ⇒ byte-identical corpus-run CSV across 1 and 4
/// workers (the acceptance contract). Two families keep the debug-build
/// runtime modest while still covering certified, refuted and
/// repair-round rows.
#[test]
fn corpus_run_csv_is_byte_identical_across_worker_counts() {
    let corpus = generate_corpus(&[Family::Automotive, Family::Util], DEFAULT_CORPUS_SEED).unwrap();
    let jobs: Vec<CorpusJob> = corpus
        .iter()
        .map(|s| CorpusJob {
            name: s.file_name.clone(),
            family: s.family.name().to_string(),
            text: s.text.clone(),
        })
        .collect();
    // A trimmed search keeps the debug-build runtime down; byte-identity
    // must hold for any flow configuration.
    let flow = FlowConfig {
        search: SearchConfig { iterations: 40, neighborhood: 12, ..SearchConfig::default() },
        ..FlowConfig::default()
    };
    let render = |workers: usize| {
        let mut csv = format!("{CORPUS_CSV_HEADER}\n");
        let (outcome, _) = run_corpus(&jobs, &CorpusRunConfig { workers, flow }, None, |_, row| {
            csv.push_str(&row.to_csv());
            csv.push('\n');
        });
        (csv, outcome)
    };
    let (serial_csv, serial) = render(1);
    let (parallel_csv, _) = render(4);
    assert_eq!(serial_csv, parallel_csv, "worker count leaked into the report");

    // Every row is certified-or-tagged; nothing errors on the built-in
    // corpus, and at least one row actually certifies.
    assert!(serial.errors.is_empty(), "{:?}", serial.errors);
    assert!(serial.rows.iter().all(|r| r.certified != CorpusVerdict::Error));
    assert!(serial.rows.iter().any(|r| r.certified == CorpusVerdict::Certified));
    for row in &serial.rows {
        if row.certified == CorpusVerdict::Certified {
            assert!(row.schedulable, "{}: certified implies schedulable", row.spec);
            assert!(row.exact_len.is_some(), "{}", row.spec);
        }
        if row.certified == CorpusVerdict::Refuted {
            assert!(!row.schedulable, "{}: refuted is never schedulable", row.spec);
        }
    }
}

/// The `specs/corpus_*.ftes` exemplars are pinned generator output: each
/// one's identity header names its `(family, index, master seed)`, and
/// regenerating that member must reproduce the checked-in bytes. Fails
/// when the generator's draw, the `.ftes` emitter or the exemplar files
/// drift apart.
#[test]
fn checked_in_exemplars_are_pinned_generator_output() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut exemplars: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("specs/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("corpus_")))
        .collect();
    exemplars.sort();
    assert_eq!(exemplars.len(), 5, "one exemplar per family: {exemplars:?}");

    let mut seen_families = Vec::new();
    for path in exemplars {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap_or_default();
        let field = |key: &str| -> String {
            header
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("{name}: header lacks {key}=: `{header}`"))
                .to_string()
        };
        let family =
            Family::from_name(&field("family")).unwrap_or_else(|| panic!("{name}: unknown family"));
        let index: usize = field("index").parse().unwrap();
        let seed: u64 = field("seed").parse().unwrap();
        let generated = generate_family(family, seed).unwrap();
        assert_eq!(
            generated[index].text,
            text,
            "{name}: drifted from generator output — regenerate with \
             `ftes corpus generate --family {} --seed {seed}`",
            family.name()
        );
        seen_families.push(family);
    }
    seen_families.sort_by_key(|f| f.name());
    seen_families.dedup();
    assert_eq!(seen_families.len(), 5, "exemplars cover every family");
}
