//! Canonical cluster specs: the S1–S4 analogues of the paper's M1–M4
//! (Table II, scaled per DESIGN.md §6) and the T-style training clusters.

use crate::generator::ClusterSpec;

/// The four evaluation clusters, scaled 1/10 from M1, M2, M4 and 1/1 from
/// M3 (already small), preserving service : container : machine ratios:
///
/// | Paper | #svc | #ctr | #mach | Ours | #svc | #ctr | #mach |
/// |-------|------|------|-------|------|------|------|-------|
/// | M1 | 5,904 | 25,640 | 977 | S1 | 590 | 2,564 | 98 |
/// | M2 | 10,180 | 152,833 | 5,284 | S2 | 1,018 | 15,283 | 528 |
/// | M3 | 547 | 3,485 | 96 | S3 | 547 | 3,485 | 96 |
/// | M4 | 10,682 | 113,261 | 4,365 | S4 | 1,068 | 11,326 | 436 |
pub fn s_clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec {
            name: "S1".into(),
            services: 590,
            target_containers: 2_564,
            machines: 98,
            affinity_beta: 1.5,
            affinity_fraction: 0.55,
            edge_density: 3.0,
            machine_types: 3,
            seed: 101,
            ..Default::default()
        },
        ClusterSpec {
            name: "S2".into(),
            services: 1_018,
            target_containers: 15_283,
            machines: 528,
            affinity_beta: 1.4,
            affinity_fraction: 0.6,
            edge_density: 4.0,
            machine_types: 4,
            seed: 102,
            ..Default::default()
        },
        ClusterSpec {
            name: "S3".into(),
            services: 547,
            target_containers: 3_485,
            machines: 96,
            affinity_beta: 1.7,
            affinity_fraction: 0.5,
            edge_density: 3.0,
            machine_types: 2,
            seed: 103,
            ..Default::default()
        },
        ClusterSpec {
            name: "S4".into(),
            services: 1_068,
            target_containers: 11_326,
            machines: 436,
            affinity_beta: 1.45,
            affinity_fraction: 0.6,
            edge_density: 3.5,
            machine_types: 4,
            seed: 104,
            ..Default::default()
        },
    ]
}

/// First rung of the pipeline-bench ladder: half-scale S1 and S3
/// analogues, i.e. M1 ÷ 20 and M3 ÷ 2 from Table II.
///
/// Every rung preserves the paper's container : machine ratios (M1 26.2,
/// M3 36.3 ctr/machine here), so growing up the ladder changes problem
/// *size* without changing problem *shape*:
///
/// | Rung | Specs | #svc | #ctr | #mach | ctr/mach |
/// |--------|---------|------|-------|-------|----------|
/// | medium | M1 ÷ 20 | 295 | 1,282 | 49 | 26.2 |
/// | medium | M3 ÷ 2 | 274 | 1,742 | 48 | 36.3 |
pub fn medium_clusters() -> Vec<ClusterSpec> {
    let s = s_clusters();
    [&s[0], &s[2]]
        .iter()
        .map(|spec| ClusterSpec {
            name: format!("{}-half", spec.name),
            services: spec.services / 2,
            target_containers: spec.target_containers / 2,
            machines: spec.machines / 2,
            seed: spec.seed + 100,
            ..(*spec).clone()
        })
        .collect()
}

/// Second rung of the pipeline-bench ladder: the committed S1 + S3 pair
/// (M1 ÷ 10 and M3 at full size — M3 is already small in the paper), the
/// two smaller evaluation clusters. Ratios 26.2 and 36.3 ctr/machine,
/// exactly Table II's.
pub fn large_clusters() -> Vec<ClusterSpec> {
    s_clusters()
        .into_iter()
        .filter(|spec| spec.name == "S1" || spec.name == "S3")
        .collect()
}

/// Top rung of the pipeline-bench ladder: the committed S2 + S4 pair
/// (M2 ÷ 10 and M4 ÷ 10), the two larger evaluation clusters — ~15k and
/// ~11k containers over ~500 machines each, ratios 28.9 and 26.0
/// ctr/machine, approaching the paper's M-cluster shapes as closely as
/// the scaled reproduction goes.
pub fn xl_clusters() -> Vec<ClusterSpec> {
    s_clusters()
        .into_iter()
        .filter(|spec| spec.name == "S2" || spec.name == "S4")
        .collect()
}

/// Training clusters (the paper samples 1000 subproblems from four
/// clusters T1–T4 disjoint from the test set). Smaller and with varied
/// skew so the classifier sees both CG-friendly and MIP-friendly regimes.
pub fn t_clusters(base_seed: u64) -> Vec<ClusterSpec> {
    (0..4)
        .map(|i| ClusterSpec {
            name: format!("T{}", i + 1),
            services: 120 + 60 * i,
            target_containers: 500 + 800 * i as u64,
            machines: 24 + 16 * i,
            affinity_beta: 1.3 + 0.2 * i as f64,
            affinity_fraction: 0.5 + 0.1 * (i % 2) as f64,
            edge_density: 2.5 + i as f64,
            machine_types: 2 + i % 3,
            seed: base_seed + i as u64,
            ..Default::default()
        })
        .collect()
}

/// A very small cluster for examples and fast tests.
pub fn tiny_cluster(seed: u64) -> ClusterSpec {
    ClusterSpec {
        name: "tiny".into(),
        services: 30,
        target_containers: 120,
        machines: 10,
        affinity_beta: 1.6,
        affinity_fraction: 0.6,
        edge_density: 2.5,
        community_size: 6,
        cross_traffic: 0.08,
        machine_types: 2,
        feature_machine_fraction: 0.4,
        feature_service_fraction: 0.1,
        spread_rule_fraction: 0.15,
        group_rules: 1,
        utilization: 0.5,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn s_cluster_scales_match_design_doc() {
        let specs = s_clusters();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].services, 590);
        assert_eq!(specs[1].machines, 528);
        assert_eq!(specs[2].services, 547, "M3 kept at full scale");
        // ratio check: containers per machine within 2× of the paper's
        for (spec, paper_ratio) in specs.iter().zip([26.2, 28.9, 36.3, 25.9]) {
            let ratio = spec.target_containers as f64 / spec.machines as f64;
            assert!(
                (ratio / paper_ratio - 1.0).abs() < 0.5,
                "{}: ratio {ratio} vs paper {paper_ratio}",
                spec.name
            );
        }
    }

    #[test]
    fn tiny_cluster_generates_quickly_and_validly() {
        let p = generate(&tiny_cluster(1));
        assert_eq!(p.num_services(), 30);
        assert!(p.affinity_edges.len() > 5);
    }

    #[test]
    fn ladder_rungs_preserve_m_cluster_ratios() {
        // every rung keeps containers-per-machine within 2× of the paper's
        // M-ratios (26–37), the same shape invariant as the S-clusters
        for (rung, specs) in [
            ("medium", medium_clusters()),
            ("large", large_clusters()),
            ("xl", xl_clusters()),
        ] {
            assert_eq!(specs.len(), 2, "{rung}");
            for spec in &specs {
                let ratio = spec.target_containers as f64 / spec.machines as f64;
                assert!(
                    (24.0..40.0).contains(&ratio),
                    "{rung}/{}: ctr/machine ratio {ratio:.1} outside the M-cluster band",
                    spec.name
                );
            }
        }
        // rungs grow strictly in total containers
        let total =
            |specs: &[ClusterSpec]| -> u64 { specs.iter().map(|s| s.target_containers).sum() };
        let (m, l, x) = (
            total(&medium_clusters()),
            total(&large_clusters()),
            total(&xl_clusters()),
        );
        assert!(m < l && l < x, "ladder must grow: {m} < {l} < {x}");
    }

    #[test]
    fn medium_clusters_are_half_scale_s1_s3() {
        let m = medium_clusters();
        assert_eq!(m[0].name, "S1-half");
        assert_eq!(m[0].services, 295);
        assert_eq!(m[0].target_containers, 1_282);
        assert_eq!(m[0].machines, 49);
        assert_eq!(m[1].name, "S3-half");
        assert_eq!(m[1].target_containers, 1_742);
        // distinct seeds so the rung is not a subsample of the S-run
        let s = s_clusters();
        assert_ne!(m[0].seed, s[0].seed);
    }

    #[test]
    fn t_clusters_are_distinct_from_s_clusters() {
        let t = t_clusters(900);
        assert_eq!(t.len(), 4);
        for spec in &t {
            assert!(spec.services < 590, "training clusters stay small");
        }
    }
}
