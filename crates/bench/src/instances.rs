//! Bridges populations/templates into offline allocation instances —
//! and the same instances into live runtime scenarios, so an experiment
//! can compare the closed-form emulation against the actual protocol on
//! any `qosc_core::runtime` backend.

use std::collections::HashMap;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qosc_baselines::{Instance, OfflineNode, OfflineTask};
use qosc_core::{
    CoalitionNode, DesRuntime, EvalConfig, LinearPenalty, OrganizerConfig, OrganizerEngine,
    OrganizerStrategy, ProviderConfig, ProviderEngine, ProviderStrategy, QuadraticPenalty,
    RewardModel, Runtime,
};
use qosc_resources::{ResourceKind, SchedulingPolicy};
use qosc_spec::{ServiceDef, TaskDef, TaskId};
use qosc_workloads::{AppTemplate, PopulationConfig};
use std::sync::Arc as StdArc;

/// Builds an offline instance: `n_nodes` drawn from `population` (node 0
/// is the requester), `n_tasks` instances of `template`.
pub fn population_instance(
    population: &PopulationConfig,
    n_nodes: usize,
    template: AppTemplate,
    n_tasks: usize,
    seed: u64,
) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let profiles = population.sample_many(n_nodes, &mut rng);
    let spec = template.spec();
    let resolved = template
        .request()
        .resolve(&spec)
        .expect("catalog requests resolve");
    let model = template.demand_model();
    let nodes = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut models: HashMap<String, Arc<dyn qosc_resources::DemandModel>> = HashMap::new();
            models.insert(spec.name().to_string(), Arc::clone(&model));
            // Nodes run their own degradation policies (§5: penalty "can
            // be defined according to user's own criteria"): odd nodes
            // degrade quadratically, which shapes their offers differently
            // and exercises cross-dimension trade-offs in evaluation.
            let reward: StdArc<dyn RewardModel> = if i % 2 == 1 {
                StdArc::new(QuadraticPenalty::default())
            } else {
                StdArc::new(LinearPenalty::default())
            };
            OfflineNode {
                id: i as u32,
                capacity: p.capacity,
                link_kbps: p.capacity.get(ResourceKind::NetBandwidth),
                policy: SchedulingPolicy::Edf,
                models,
                reward: Some(reward),
                chain: ProviderStrategy::default(),
            }
        })
        .collect();
    let tasks = (0..n_tasks)
        .map(|i| {
            let (input_bytes, output_bytes) = template.payload(&mut rng);
            OfflineTask::new(
                TaskId(i as u32),
                spec.clone(),
                resolved.clone(),
                input_bytes,
                output_bytes,
            )
        })
        .collect();
    Instance {
        requester: 0,
        nodes,
        tasks,
        eval: EvalConfig::default(),
        chain: OrganizerStrategy::default(),
    }
}

/// Re-assembles an offline [`Instance`] as a zero-latency runtime
/// scenario: one [`CoalitionNode`] per [`OfflineNode`] (the requester
/// also organizes, with the instance's evaluation config and monitoring
/// off — formation cost only), same capacities, link bandwidths, demand
/// models and per-node reward policies.
pub fn instance_runtime(inst: &Instance) -> DesRuntime {
    let width = inst
        .nodes
        .iter()
        .map(|n| n.id as usize + 1)
        .max()
        .unwrap_or(0);
    let mut rt = DesRuntime::instant(width);
    for n in &inst.nodes {
        let reward: Arc<dyn RewardModel> = n
            .reward
            .clone()
            .unwrap_or_else(|| Arc::new(LinearPenalty::default()));
        let mut provider = ProviderEngine::new(
            n.id,
            n.capacity,
            ProviderConfig {
                link_kbps: n.link_kbps,
                policy: n.policy,
                reward,
                chain: n.chain.clone(),
                ..Default::default()
            },
        );
        for (name, model) in &n.models {
            provider.register_demand_model(name.clone(), Arc::clone(model));
        }
        let mut node = CoalitionNode::new(n.id).with_provider(provider);
        if n.id == inst.requester {
            node = node.with_organizer(OrganizerEngine::new(
                n.id,
                OrganizerConfig {
                    eval: inst.eval,
                    monitor: false,
                    chain: inst.chain.clone(),
                    ..Default::default()
                },
            ));
        }
        rt.add_node(node).expect("instance node ids are unique");
    }
    rt
}

/// The instance's task list as a [`ServiceDef`] over the template's
/// (unresolved) request, preserving each task's payload sizes.
pub fn instance_service(inst: &Instance, template: AppTemplate, name: &str) -> ServiceDef {
    ServiceDef::new(
        name,
        inst.tasks
            .iter()
            .map(|t| TaskDef {
                name: format!("t{}", t.id.0),
                spec: t.spec.clone(),
                request: template.request(),
                input_bytes: t.input_bytes,
                output_bytes: t.output_bytes,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_shape_matches_request() {
        let inst = population_instance(
            &PopulationConfig::default(),
            6,
            AppTemplate::Surveillance,
            3,
            42,
        );
        assert_eq!(inst.nodes.len(), 6);
        assert_eq!(inst.tasks.len(), 3);
        assert_eq!(inst.requester, 0);
        // Deterministic.
        let inst2 = population_instance(
            &PopulationConfig::default(),
            6,
            AppTemplate::Surveillance,
            3,
            42,
        );
        assert_eq!(inst.nodes[3].capacity, inst2.nodes[3].capacity);
        assert_eq!(inst.tasks[2].input_bytes, inst2.tasks[2].input_bytes);
    }

    #[test]
    fn instance_runs_as_a_protocol_scenario() {
        use qosc_core::NegoEvent;
        use qosc_netsim::SimTime;
        let inst = population_instance(
            &PopulationConfig::default(),
            5,
            AppTemplate::Surveillance,
            2,
            7,
        );
        let mut rt = instance_runtime(&inst);
        let svc = instance_service(&inst, AppTemplate::Surveillance, "svc");
        rt.submit(inst.requester, svc, SimTime(1_000)).unwrap();
        rt.run(SimTime(30_000_000));
        assert!(
            rt.events().iter().any(|e| matches!(
                e.event,
                NegoEvent::Formed { .. } | NegoEvent::FormationIncomplete { .. }
            )),
            "the protocol must settle on the instance: {:?}",
            rt.events()
        );
    }
}
