//! Cluster topology: nodes, GPUs and their streams/links.
//!
//! Mirrors the paper's testbed layout (§7.1): nodes with several GPUs each,
//! PCIe between every GPU and host memory, NVLink within a node, and a NIC
//! between nodes. Each GPU gets the four streams Aegaeon uses (Figure 10):
//! the default compute stream, dedicated KV-in and KV-out streams, and the
//! model prefetch stream.

use crate::device::GpuSpec;
use crate::fabric::{Fabric, LinkId, StreamId};

/// Identifies a GPU within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuId(pub u32);

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Identifies a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Hardware composition of one node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Number of GPUs.
    pub gpus: u32,
    /// The GPU model installed (homogeneous within a node).
    pub gpu: GpuSpec,
    /// NIC bandwidth per direction, bytes/s.
    pub nic_bw: f64,
}

impl NodeSpec {
    /// The paper's H800 node: 8 GPUs, 2 TB DDR5, 2×100 GbE-class NIC.
    pub fn h800_node() -> NodeSpec {
        NodeSpec {
            gpus: 8,
            gpu: GpuSpec::h800(),
            nic_bw: 25e9,
        }
    }
}

/// Hardware composition of the cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Nodes in the cluster.
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// `n_nodes` identical nodes.
    pub fn homogeneous(n_nodes: u32, node: NodeSpec) -> ClusterSpec {
        ClusterSpec {
            nodes: vec![node; n_nodes as usize],
        }
    }

    /// The paper's main testbed: two nodes with eight H800s each.
    pub fn paper_testbed() -> ClusterSpec {
        ClusterSpec::homogeneous(2, NodeSpec::h800_node())
    }
}

/// Streams and links belonging to one GPU.
#[derive(Debug, Clone)]
pub struct GpuHandles {
    /// The node hosting this GPU.
    pub node: NodeId,
    /// Device capabilities.
    pub spec: GpuSpec,
    /// Default (compute) stream.
    pub default_stream: StreamId,
    /// KV swap-in stream.
    pub kv_in: StreamId,
    /// KV swap-out stream.
    pub kv_out: StreamId,
    /// Model prefetch stream.
    pub prefetch: StreamId,
    /// Host-to-device PCIe channel.
    pub h2d: LinkId,
    /// Device-to-host PCIe channel.
    pub d2h: LinkId,
}

/// Links belonging to one node.
#[derive(Debug, Clone)]
pub struct NodeHandles {
    /// Outbound NIC channel.
    pub nic_tx: LinkId,
}

/// The built topology: an index from GPUs/nodes to fabric handles.
#[derive(Debug, Clone)]
pub struct ClusterTopology {
    gpus: Vec<GpuHandles>,
    nodes: Vec<NodeHandles>,
}

impl ClusterTopology {
    /// Instantiates every stream and link of `spec` into `fabric`.
    pub fn build<T: Clone>(spec: &ClusterSpec, fabric: &mut Fabric<T>) -> ClusterTopology {
        let mut gpus = Vec::new();
        let mut nodes = Vec::new();
        for (ni, node) in spec.nodes.iter().enumerate() {
            let nic_tx = fabric.add_link(format!("node{ni}.nic_tx"), node.nic_bw);
            // Inbound NIC channel: no transfer names it, but it keeps its
            // link id, so link-indexed faults and audits see every channel.
            fabric.add_link(format!("node{ni}.nic_rx"), node.nic_bw);
            for gi in 0..node.gpus {
                let tag = format!("n{ni}g{gi}");
                gpus.push(GpuHandles {
                    node: NodeId(ni as u32),
                    spec: node.gpu.clone(),
                    default_stream: fabric.add_stream(format!("{tag}.default")),
                    kv_in: fabric.add_stream(format!("{tag}.kv_in")),
                    kv_out: fabric.add_stream(format!("{tag}.kv_out")),
                    prefetch: fabric.add_stream(format!("{tag}.prefetch")),
                    h2d: fabric.add_link(format!("{tag}.h2d"), node.gpu.pcie_bw),
                    d2h: fabric.add_link(format!("{tag}.d2h"), node.gpu.pcie_bw),
                });
            }
            nodes.push(NodeHandles { nic_tx });
        }
        ClusterTopology { gpus, nodes }
    }

    /// Handles of a GPU.
    pub fn gpu(&self, id: GpuId) -> &GpuHandles {
        &self.gpus[id.0 as usize]
    }

    /// Handles of a node.
    pub fn node(&self, id: NodeId) -> &NodeHandles {
        &self.nodes[id.0 as usize]
    }

    /// All GPU ids.
    pub fn gpu_ids(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.gpus.len() as u32).map(GpuId)
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricEvent;
    use aegaeon_sim::{EventQueue, SimDur, Timeline};

    #[test]
    fn paper_testbed_has_16_gpus_on_2_nodes() {
        let spec = ClusterSpec::paper_testbed();
        let mut fabric: Fabric<()> = Fabric::new();
        let topo = ClusterTopology::build(&spec, &mut fabric);
        assert_eq!(topo.gpu_count(), 16);
        assert_eq!(topo.node_count(), 2);
        assert_eq!(topo.gpu(GpuId(0)).node, topo.gpu(GpuId(7)).node);
        assert_ne!(topo.gpu(GpuId(7)).node, topo.gpu(GpuId(8)).node);
        // 4 distinct streams per GPU.
        let streams: std::collections::HashSet<StreamId> = topo
            .gpu_ids()
            .flat_map(|g| {
                let h = topo.gpu(g);
                [h.default_stream, h.kv_in, h.kv_out, h.prefetch]
            })
            .collect();
        assert_eq!(streams.len(), 64);
    }

    #[test]
    fn gpu_links_are_independent_channels() {
        let mut fabric: Fabric<&'static str> = Fabric::new();
        let topo = ClusterTopology::build(&ClusterSpec::paper_testbed(), &mut fabric);
        let g0 = topo.gpu(GpuId(0)).clone();
        let g1 = topo.gpu(GpuId(1)).clone();
        let mut q: EventQueue<FabricEvent> = EventQueue::new();
        let mut cs = std::collections::VecDeque::new();
        // Loads on two different GPUs must not contend.
        fabric.submit(
            g0.prefetch,
            crate::fabric::StreamOp::Copy { link: g0.h2d, bytes: 32_000_000_000, tag: "a" },
            &mut q,
            &mut cs,
        );
        fabric.submit(
            g1.prefetch,
            crate::fabric::StreamOp::Copy { link: g1.h2d, bytes: 32_000_000_000, tag: "b" },
            &mut q,
            &mut cs,
        );
        let mut finishes = Vec::new();
        while let Some((t, ev)) = q.pop() {
            fabric.advance(ev, &mut q, &mut cs);
            for c in cs.drain(..) {
                if let crate::fabric::Completion::Op { .. } = c {
                    finishes.push(t);
                }
            }
        }
        assert_eq!(finishes.len(), 2);
        for t in finishes {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
        let _ = SimDur::ZERO; // keep import used
        let _ = q.now();
    }

    #[test]
    fn link_ids_are_dense_and_count_both_nic_directions() {
        let mut fabric: Fabric<()> = Fabric::new();
        let topo = ClusterTopology::build(&ClusterSpec::paper_testbed(), &mut fabric);
        // Per node: NIC out and in, then an H2D and a D2H channel per GPU.
        assert_eq!(fabric.link_count(), 2 * (2 + 8 * 2));
        assert_eq!(topo.node(NodeId(0)).nic_tx, LinkId(0));
        assert_eq!(topo.gpu(GpuId(0)).h2d, LinkId(2));
        assert_eq!(topo.node(NodeId(1)).nic_tx, LinkId(18));
        assert_eq!(topo.gpu(GpuId(15)).d2h, LinkId(35));
    }
}
