//! Pins every panel of every figure bit-for-bit.
//!
//! The digests below are FNV-1a of `to_csv() + render_ascii()`. Those of
//! the paper's figures, figR1 and figD1 were taken at commit 666856a, where
//! each panel was a hand-written arm of a 17-arm `match` over three
//! assemblers; the `SWEEPS`/`PANELS` tables must reproduce every one. On a
//! mismatch the test prints the actual table.

use strip_core::fingerprint::fnv1a_64;
use strip_experiments::{Campaign, FigureId, RunSettings};

fn digests(replicas: usize, ids: &[FigureId]) -> Vec<(String, u64)> {
    let mut settings = RunSettings::quick(2.0);
    settings.replicas = replicas;
    let mut campaign = Campaign::new(settings);
    let mut out = Vec::new();
    for &id in ids {
        for panel in campaign.figure(id) {
            let blob = panel.to_csv() + &panel.render_ascii();
            out.push((panel.id.clone(), fnv1a_64(blob.as_bytes())));
        }
    }
    assert!(campaign.failures().is_empty());
    out
}

fn check(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = got.iter().map(|(id, d)| (id.as_str(), *d)).collect();
    if got != pinned {
        let rows: Vec<String> = got
            .iter()
            .map(|(id, d)| format!("    (\"{id}\", {d:#018x}),"))
            .collect();
        panic!("panel digests moved; actual table:\n{}", rows.join("\n"));
    }
}

/// All sixteen figures, one replica. Taken at commit 666856a.
#[rustfmt::skip]
const PINNED: &[(&str, u64)] = &[
    ("fig03a", 0x4a5e822ea742eec9),
    ("fig03b", 0x69468ff9724e99f1),
    ("fig04a", 0x5b3dadf3e7f2d74b),
    ("fig04b", 0xea378765e9fe58c9),
    ("fig05a", 0x0687bf862a70a7a6),
    ("fig05b", 0xa0347eeccdfb500a),
    ("fig06a", 0xc9a34b0205125a14),
    ("fig06b", 0x5adad318c9171906),
    ("fig07a", 0x3e80aeec28bd2c8e),
    ("fig07b", 0x5e063c1f81bc14ca),
    ("fig08", 0xb9e5a2746a098f58),
    ("fig09a", 0xdcd9c949c8a5f1e0),
    ("fig09b", 0x6604172f799be2c5),
    ("fig10a", 0x6807c960287349bb),
    ("fig10b", 0xf55efbd80e061759),
    ("fig11a", 0x5bb0a59200a4f5d3),
    ("fig11b", 0x890f00b2cbaaf22c),
    ("fig12a", 0x54815190f3891153),
    ("fig12b", 0x1b2fee6441bc8dca),
    ("fig13a", 0xcf61976c95959c08),
    ("fig13b", 0x08e7721929843d24),
    ("fig14", 0x95dd893663130578),
    ("fig15a", 0x68735b232c880de2),
    ("fig15b", 0x67de345de2d3e4c4),
    ("fig16", 0x6902319283786ac0),
    ("figr1a", 0x82b2916955147d56),
    ("figr1b", 0x4e883b2801b5533d),
    ("figr1c", 0x3c55157c5afee2be),
    ("figr1d", 0x2218962827e7dfaf),
    ("figd1a", 0x8a21724e9785a37e),
    ("figd1b", 0xc405d8a9a96e16a7),
    ("figd1c", 0x5a1a04b62c3f795d),
];

/// figX1–figX4, one replica. Taken when the four extension targets of
/// `crates/bench` became these rows; at 1000 s every value those targets
/// printed is the panel's value at the same curve and x.
#[rustfmt::skip]
const PINNED_EXTENSIONS: &[(&str, u64)] = &[
    ("figx1a", 0x246d5ecaf07a7739),
    ("figx1b", 0xb3947ed2eb96ed04),
    ("figx1c", 0xb85c7e6ac8fcec17),
    ("figx1d", 0x127d09bbec1e514f),
    ("figx1e", 0xef01ffca67ff0f65),
    ("figx1f", 0xc0d56aafcff90325),
    ("figx1g", 0x6fb3a80e6e580028),
    ("figx1h", 0x3315cd14bab098da),
    ("figx1i", 0x23c51f7808fab6a3),
    ("figx1j", 0xa152cd4ddb3f839a),
    ("figx1k", 0xc1556eb109d539de),
    ("figx2a", 0x20fc50763116cd24),
    ("figx2b", 0x82aa33efabbd337c),
    ("figx2c", 0x5d296fe7374f5b1c),
    ("figx2d", 0xc102c0089575ebd6),
    ("figx2e", 0x3457a70e8b6673a1),
    ("figx2f", 0x3fff6379e3f1c677),
    ("figx3a", 0x5ee2da037aed949e),
    ("figx3b", 0x2512a9fb5d5c54b4),
    ("figx3c", 0x46751093beddfa9b),
    ("figx3d", 0xfa9ea8697d85e845),
    ("figx3e", 0x180f0749e2215309),
    ("figx3f", 0x096502c295027b67),
    ("figx3g", 0xddcc7a8abb271008),
    ("figx4", 0x21a9a7f78dc4b2ff),
];

/// fig04 and fig11 at two replicas (mean ± sd columns; ratio panels carry
/// no spread). Taken at commit 666856a.
#[rustfmt::skip]
const PINNED_REPLICATED: &[(&str, u64)] = &[
    ("fig04a", 0xe20456900400bd8e),
    ("fig04b", 0x770b34c7843b4242),
    ("fig11a", 0xe81cb619f7797a26),
    ("fig11b", 0x890f00b2cbaaf22c),
];

#[test]
fn every_panel_matches_its_pinned_digest() {
    check(
        &digests(1, &FigureId::ALL),
        &[PINNED, PINNED_EXTENSIONS].concat(),
    );
}

/// At 2 s a run reaches only figX4's first window: the later 49 are no
/// point at all, not NaN.
#[test]
fn a_window_the_run_never_reaches_is_no_point() {
    let panels = Campaign::new(RunSettings::quick(2.0)).figure(FigureId::FigX4);
    for series in &panels[0].series {
        assert_eq!(series.points.len(), 1, "{}", series.label);
        assert_eq!(series.points[0].0, 0.0);
    }
    assert!(!panels[0].to_csv().contains("NaN"));
}

#[test]
fn replicated_panels_match_their_pre_table_digests() {
    check(
        &digests(2, &[FigureId::Fig04, FigureId::Fig11]),
        PINNED_REPLICATED,
    );
}

/// The one intended output change: figr1d was assembled by a copy that
/// dropped the replica spread, so its CSV had no `_sd` columns.
#[test]
fn the_shed_panel_reports_its_replica_spread() {
    let mut settings = RunSettings::quick(2.0);
    settings.replicas = 2;
    let panels = Campaign::new(settings).figure(FigureId::FigR1);
    let shed = panels.iter().find(|p| p.id == "figr1d").expect("figr1d");
    for series in &shed.series {
        assert_eq!(series.spread.len(), series.points.len());
    }
    assert!(shed
        .to_csv()
        .starts_with("outage_secs,drop-newest,drop-newest_sd,"));
}
