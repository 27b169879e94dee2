//! Whole-run outcome pins: each scheduler's complete
//! [`SimulationOutcome::fingerprint`] over one fixed fleet, hashed with
//! FNV-1a, must equal a recorded constant. A change to the step loop,
//! the migration pricing, the initial packing or any scheduler that
//! moves a single bit of any run shows up here. One more pin drives Megh
//! over the same fleet with the Google-like trace, so a change to either
//! workload generator shows up too.
//!
//! The fleet exercises both bandwidth rules of the step loop: host 0 is
//! loaded by the demand packing, has a 100 Mbps NIC and goes down, so
//! evacuating it is priced at the destination's NIC, not at the slower
//! of the two; host 11 also has a 100 Mbps NIC, so moves onto it are
//! priced at 100 Mbps either way.
//!
//! [`SimulationOutcome::fingerprint`]: megh::sim::SimulationOutcome::fingerprint

use megh::baselines::{MadVmScheduler, MmtFlavor, MmtScheduler, QLearningScheduler};
use megh::core::{fnv1a64, HierMegh, MeghAgent, MeghConfig};
use megh::sim::{
    DataCenterConfig, DataCenterView, HostOutage, InitialPlacement, MigrationRequest, PmId,
    Scheduler, Simulation, VmId,
};
use megh::trace::{GoogleConfig, PlanetLabConfig, WorkloadTrace};

const HOSTS: usize = 12;
const VMS: usize = 24;
const DOWN_HOST: usize = 0;
const SLOW_HOST: usize = 11;

fn fleet(placement: InitialPlacement, trace: WorkloadTrace) -> Simulation {
    let mut config = DataCenterConfig::paper_planetlab(HOSTS, VMS);
    config.initial_placement = placement;
    config.pms[DOWN_HOST].bw_mbps = 100.0;
    config.pms[SLOW_HOST].bw_mbps = 100.0;
    config.outages = vec![HostOutage {
        host: DOWN_HOST,
        from_step: 100,
        until_step: 300,
    }];
    Simulation::new(config, trace).unwrap()
}

/// Moves one VM per step off the down host onto the slow-NIC host while
/// the outage lasts; otherwise, every 50 steps, rotates one VM onto the
/// next host.
struct Scripted;

impl Scheduler for Scripted {
    fn name(&self) -> &str {
        "Scripted"
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        let down = PmId(DOWN_HOST);
        if view.is_down(down) {
            return view
                .vms_on(down)
                .first()
                .map(|&vm| vec![MigrationRequest::new(vm, PmId(SLOW_HOST))])
                .unwrap_or_default();
        }
        if !view.step().is_multiple_of(50) {
            return Vec::new();
        }
        let vm = VmId(view.step() / 50 % view.n_vms());
        let next = (view.host_of(vm).0 + 1) % view.n_hosts();
        vec![MigrationRequest::new(vm, PmId(next))]
    }
}

fn digest(sim: &Simulation, scheduler: impl Scheduler) -> u64 {
    fnv1a64(sim.run(scheduler).fingerprint().as_bytes())
}

#[test]
fn whole_run_outcomes_are_pinned() {
    let planetlab = || PlanetLabConfig::new(VMS, 23).generate(2);
    let packed = fleet(InitialPlacement::DemandPacked, planetlab());
    assert!(
        packed.initial_placement().contains(&DOWN_HOST),
        "the outage must hit a loaded host"
    );
    let random = fleet(InitialPlacement::RandomUniform { seed: 5 }, planetlab());
    let google = fleet(
        InitialPlacement::DemandPacked,
        GoogleConfig::new(VMS, 23).generate(2),
    );
    let megh = || MeghConfig::paper_defaults(VMS, HOSTS);

    let got = [
        ("megh", digest(&packed, MeghAgent::new(megh()))),
        ("hier2", digest(&packed, HierMegh::sharded(megh(), 2))),
        (
            "thr-mmt",
            digest(&packed, MmtScheduler::new(MmtFlavor::Thr)),
        ),
        ("lr-mmt", digest(&packed, MmtScheduler::new(MmtFlavor::Lr))),
        ("madvm", digest(&packed, MadVmScheduler::default())),
        ("madvm-random", digest(&random, MadVmScheduler::default())),
        ("scripted", digest(&packed, Scripted)),
        ("q-learning", digest(&packed, QLearningScheduler::new(17))),
        ("megh-google", digest(&google, MeghAgent::new(megh()))),
    ];
    let want: [(&str, u64); 9] = [
        ("megh", 0x3251_97a6_4058_37c2),
        ("hier2", 0x8c9d_72d6_006e_1e8a),
        ("thr-mmt", 0x8bab_185f_9e85_eb82),
        ("lr-mmt", 0xc22f_b912_e0ba_46f0),
        ("madvm", 0x18ea_1b22_2bbd_faf9),
        ("madvm-random", 0x85f3_3661_64bd_1f30),
        ("scripted", 0xf7d6_fac4_3b34_9f32),
        ("q-learning", 0x5030_4441_809a_645c),
        ("megh-google", 0x55ee_c8af_3dba_404f),
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|((name, g), (_, w))| format!("{name}: got {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
