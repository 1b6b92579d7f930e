"""Exact AIG sizes, one-bit repair gadgets, and mutation-graph bound checks."""

from .truthtable import Assignment, TruthTable, parse_hex
from .aig import AigCircuit, AndGate, Literal, from_aiger, to_aiger
from .npn import NpnClass, NpnClassTable, NpnTransform, apply_transform, canonicalize, enumerate_classes
from .synthesis import OptResult, Status, SynthesisConfig, brute_oracle, exists_circuit, opt_size, sweep
from .cnf import decode_model, encode_cnf
from .repair import RepairReport, build_detector, repair_clear, repair_multi, repair_set
from .mutation import MutationEdge, MutationGraph, build_graph, class_neighbors, verify_bound
from .store import ResultRecord, append_record, load_store

__all__ = [
    "Assignment",
    "TruthTable",
    "parse_hex",
    "AigCircuit",
    "AndGate",
    "Literal",
    "from_aiger",
    "to_aiger",
    "NpnClass",
    "NpnClassTable",
    "NpnTransform",
    "apply_transform",
    "canonicalize",
    "enumerate_classes",
    "OptResult",
    "Status",
    "SynthesisConfig",
    "brute_oracle",
    "decode_model",
    "encode_cnf",
    "exists_circuit",
    "opt_size",
    "sweep",
    "RepairReport",
    "build_detector",
    "repair_clear",
    "repair_multi",
    "repair_set",
    "MutationEdge",
    "MutationGraph",
    "build_graph",
    "class_neighbors",
    "verify_bound",
    "ResultRecord",
    "append_record",
    "load_store",
]
