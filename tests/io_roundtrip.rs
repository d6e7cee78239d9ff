//! Integration tests for the interchange formats: PLA and BLIF in,
//! Verilog/BLIF out, with functional equivalence end to end.

use casyn::flow::{congestion_flow, FlowOptions};
use casyn::library::corelib018;
use casyn::netlist::bench::{random_pla, PlaGenConfig};
use casyn::netlist::blif::{to_blif, Blif};
use casyn::netlist::verilog::to_verilog;

fn pla() -> casyn::netlist::Pla {
    random_pla(&PlaGenConfig {
        inputs: 8,
        outputs: 5,
        terms: 24,
        min_literals: 2,
        max_literals: 5,
        mean_outputs_per_term: 1.4,
        seed: 99,
    })
}

/// PLA → network → BLIF text → parsed network keeps the function.
#[test]
fn pla_to_blif_roundtrip() {
    let pla = pla();
    let net = pla.to_network();
    let text = to_blif(&net, "roundtrip");
    let back: Blif = text.parse().expect("generated BLIF must parse");
    assert_eq!(back.model, "roundtrip");
    for m in 0..256u32 {
        let asg: Vec<bool> = (0..8).map(|i| m >> i & 1 == 1).collect();
        assert_eq!(
            net.simulate_outputs(&asg),
            back.network().simulate_outputs(&asg),
            "BLIF roundtrip mismatch at {asg:?}"
        );
    }
}

/// PLA text roundtrip keeps the function (espresso format).
#[test]
fn pla_text_roundtrip() {
    let pla = pla();
    let text = pla.to_pla_string();
    let back: casyn::netlist::Pla = text.parse().expect("generated PLA must parse");
    for m in 0..256u32 {
        let asg: Vec<bool> = (0..8).map(|i| m >> i & 1 == 1).collect();
        assert_eq!(pla.eval(&asg), back.eval(&asg));
    }
}

/// The mapped netlist exports to Verilog with one instance per cell and
/// all ports present.
#[test]
fn mapped_verilog_export_is_complete() {
    let net = pla().to_network();
    let r = congestion_flow(&net, 0.1, &FlowOptions::default()).unwrap();
    let v = to_verilog(&r.netlist, "top");
    assert!(v.matches(" u").count() >= r.netlist.num_cells());
    for name in r.netlist.input_names() {
        assert!(v.contains(&format!("input {name}")), "missing input {name}");
    }
    assert_eq!(v.lines().filter(|l| l.contains("assign")).count(), 5);
    // every instance references the Y pin exactly once
    assert_eq!(v.matches(".Y(").count(), r.netlist.num_cells());
}

/// The mapped netlist still matches the PLA after the full flow, checked
/// through the library's cell evaluator.
#[test]
fn full_flow_matches_pla_truth_table() {
    let pla = pla();
    let net = pla.to_network();
    let lib = corelib018();
    let r = congestion_flow(&net, 0.5, &FlowOptions::default()).unwrap();
    for m in 0..256u32 {
        let asg: Vec<bool> = (0..8).map(|i| m >> i & 1 == 1).collect();
        assert_eq!(
            pla.eval(&asg),
            r.netlist.simulate_outputs_with(|c, p| lib.eval_cell(c, p), &asg)
        );
    }
}
