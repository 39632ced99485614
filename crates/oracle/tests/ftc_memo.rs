//! The `FtcContext` memo of minimal failing subsets is exact and
//! independent of the order cutsets arrive in: every cutset's `FT_C`
//! built against one shared context — in forward and in reverse cutset
//! order — equals the one built against a fresh context of its own, field
//! by field, on the BWR model with all six triggers (static branching,
//! static joins and the general case all occur) and on a few hundred
//! generated trees.

use sdft_core::{
    analyze, build_ftc_with, AnalysisOptions, CutsetModel, FtcContext, TriggerClass,
    TriggerTreatment,
};
use sdft_ft::{Cutset, FaultTree, NodeId, TreeSignature};
use sdft_models::bwr::{build, BwrConfig};
use sdft_oracle::{generate_seeded, GeneratorConfig};

/// Every field of a [`CutsetModel`], the model tree by its structural
/// signature and the key by its bytes.
type Fields = (
    Option<TreeSignature>,
    Option<Vec<u8>>,
    Vec<NodeId>,
    Vec<NodeId>,
    usize,
    usize,
    bool,
    Vec<(NodeId, TriggerClass)>,
);

fn fields(model: CutsetModel) -> Fields {
    (
        model.tree.map(|t| t.structural_signature()),
        model.canonical_key.map(|k| k.as_bytes().to_vec()),
        model.static_events,
        model.dynamic_events,
        model.added_dynamic,
        model.added_static,
        model.used_general,
        model.classes_used,
    )
}

fn minimal_cutsets(tree: &FaultTree) -> Vec<Cutset> {
    analyze(tree, &AnalysisOptions::new(24.0))
        .expect("analysis succeeds")
        .cutsets
        .into_iter()
        .map(|report| report.cutset)
        .collect()
}

/// Build every cutset's model under each treatment three ways and assert
/// they agree; returns the classes the models used. Each shared context
/// serves the treatments in turn, so a memo key missing something a
/// treatment changes would answer wrongly.
fn assert_memo_is_exact(
    tree: &FaultTree,
    cutsets: &[Cutset],
    treatments: &[TriggerTreatment],
) -> Vec<TriggerClass> {
    let build = |ctx: &FtcContext, cutset: &Cutset, treatment: TriggerTreatment| {
        fields(build_ftc_with(tree, ctx, cutset, treatment).expect("FT_C builds"))
    };
    let shared = FtcContext::new(tree).unwrap();
    let mut forward = Vec::new();
    for &treatment in treatments {
        forward.extend(cutsets.iter().map(|c| build(&shared, c, treatment)));
    }
    let shared = FtcContext::new(tree).unwrap();
    let mut reverse = Vec::new();
    for &treatment in treatments.iter().rev() {
        reverse.extend(cutsets.iter().rev().map(|c| build(&shared, c, treatment)));
    }
    reverse.reverse();
    let runs = treatments
        .iter()
        .flat_map(|&treatment| cutsets.iter().map(move |c| (c, treatment)));
    for (((cutset, treatment), forward), reverse) in runs.zip(&forward).zip(&reverse) {
        let fresh = build(&FtcContext::new(tree).unwrap(), cutset, treatment);
        assert_eq!(forward, &fresh, "{treatment:?}, forward order: {cutset:?}");
        assert_eq!(reverse, &fresh, "{treatment:?}, reverse order: {cutset:?}");
    }
    forward
        .into_iter()
        .flat_map(|(.., classes_used)| classes_used.into_iter().map(|(_, class)| class))
        .collect()
}

#[test]
fn bwr_models_do_not_depend_on_the_memo() {
    // Row 6 of the trigger study: repairs at 1/100 h and all six triggers.
    let tree = build(&BwrConfig::fully_dynamic(1e-2, 1));
    let cutsets = minimal_cutsets(&tree);
    let classes = assert_memo_is_exact(&tree, &cutsets, &[TriggerTreatment::Classified]);
    for class in [
        TriggerClass::StaticBranching,
        TriggerClass::StaticJoins,
        TriggerClass::General,
    ] {
        assert!(classes.contains(&class), "BWR never used {class:?}");
    }
}

#[test]
fn generated_models_do_not_depend_on_the_memo() {
    let presets = [
        GeneratorConfig::small(),
        GeneratorConfig::medium(),
        GeneratorConfig::violating(),
    ];
    let mut triggered = 0;
    for seed in 0..300u64 {
        let spec = generate_seeded(&presets[seed as usize % presets.len()], 0x3E30 + seed);
        let tree = spec.build().expect("generated specs build");
        let cutsets = minimal_cutsets(&tree);
        let classes = assert_memo_is_exact(
            &tree,
            &cutsets,
            &[TriggerTreatment::Classified, TriggerTreatment::CutsetOnly],
        );
        triggered += usize::from(!classes.is_empty());
    }
    assert!(triggered >= 100, "only {triggered} trees modeled a trigger");
}
