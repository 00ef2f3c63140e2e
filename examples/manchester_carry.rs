//! The Manchester carry chain (paper Fig. 2): build the full
//! bit-sliced dynamic chain, extract its longest discharge path (the
//! 6-NMOS stack of Figs. 7 and 9) and evaluate it with QWM.
//!
//! ```text
//! cargo run --release --example manchester_carry
//! ```

use qwm::circuit::cells;
use qwm::circuit::waveform::{TransitionKind, Waveform};
use qwm::core::chain::Chain;
use qwm::core::evaluate::{evaluate, QwmConfig};
use qwm::device::{analytic_models, tabular_models, Technology};
use qwm::num::NumError;
use qwm::spice::engine::{initial_uniform, simulate, TransientConfig};

fn main() -> Result<(), NumError> {
    let tech = Technology::cmosp35();
    let spice_models = analytic_models(&tech);
    let qwm_models = tabular_models(&tech)?;
    let bits = 4;

    // The full chain, as laid out: per-bit propagate pass transistors,
    // generate pull-downs, precharge PMOS and the evaluation foot.
    let full = cells::manchester_carry_chain(&tech, bits, cells::DEFAULT_LOAD)?;
    println!(
        "Manchester carry chain, {bits} bits: {} devices, {} nodes, {} inputs, outputs {:?}",
        full.edge_count(),
        full.node_count(),
        full.inputs().len(),
        full.outputs()
            .iter()
            .map(|&o| full.node_name(o).to_string())
            .collect::<Vec<_>>()
    );

    // Worst case: carry ripples from the generate at bit 0 all the way
    // to c4 — the evaluation foot + g_in + four propagate transistors.
    // `manchester_longest_path` materializes exactly that stack.
    let path = cells::manchester_longest_path(&tech, bits, cells::DEFAULT_LOAD)?;
    let out = path.node_by_name("out").expect("top carry node");
    let chain = Chain::extract(&path, out, TransitionKind::Fall)?;
    println!(
        "longest path: {} series NMOS (the paper's 6-stack for 4 bits)",
        chain.transistor_count()
    );

    let inputs: Vec<Waveform> = (0..path.inputs().len())
        .map(|_| Waveform::step(0.0, 0.0, tech.vdd))
        .collect();
    let init = initial_uniform(&path, &spice_models, tech.vdd);

    let qwm = evaluate(
        &path,
        &qwm_models,
        &inputs,
        &init,
        out,
        TransitionKind::Fall,
        &QwmConfig::default(),
    )?;
    let d_q = qwm.delay_50(tech.vdd, 0.0).expect("delay");

    let spice = simulate(
        &path,
        &spice_models,
        &inputs,
        &init,
        &TransientConfig::hspice_1ps(3.0 * d_q),
    )?;
    let d_s = spice
        .waveform(out)?
        .crossing(tech.vdd / 2.0, false)
        .expect("spice falls");

    println!("\nper-node 50% fall times along the chain (QWM):");
    for (k, w) in qwm.waveforms.iter().enumerate() {
        if let Some(t) = w.crossing(tech.vdd / 2.0) {
            println!("  node {}: {:.2} ps", k + 1, t * 1e12);
        }
    }
    println!(
        "\ncarry-out delay: qwm {:.2} ps vs spice {:.2} ps ({:.2}% error), speedup {:.1}x",
        d_q * 1e12,
        d_s * 1e12,
        100.0 * (d_q - d_s).abs() / d_s,
        spice.elapsed.as_secs_f64() / qwm.elapsed.as_secs_f64()
    );
    Ok(())
}
