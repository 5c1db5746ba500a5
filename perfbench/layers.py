"""Attribute sampled host time to the simulator's layers.

A sample is the chain of frames the sampler recorded, innermost first; each
frame resolves (through addr2line's inline chain) to source files, innermost
first. The sample belongs to the innermost file under src/<module>/ whose
module is a layer. Frames in src/common, in the standard library, in libc
or in the benchmark's own files pass the sample on to their caller, so the
shares of all layers sum to one; a sample with no layer frame at all is
"other".
"""

import os
import subprocess

LAYERS = ("sim", "scheduler", "exec.metadata", "exec.jm", "exec.worker", "net",
          "ctrl", "fault", "spec", "dag", "obs", "metrics", "other")

# Every directory under src/, mapped to its layer. None passes the sample to
# the caller. tests/test_layers.py checks that no directory is missing.
MODULE_LAYERS = {
    "api": "other",            # Dataset/Pregel front ends of the local runtime.
    "baselines": "scheduler",  # Alternative schedulers and packing placement.
    "common": None,            # Shared utilities: charged to their caller.
    "ctrl": "ctrl",
    "dag": "dag",
    "driver": "other",         # RunExperiment itself: outermost frame.
    "exec": "exec.worker",     # Refined per file by EXEC_FILE_LAYERS.
    "fault": "fault",
    "metrics": "metrics",
    "net": "net",
    "obs": "obs",
    "runtime": "other",
    "scheduler": "scheduler",
    "sim": "sim",
    "spec": "spec",
    "sql": "other",
    "workloads": "other",
}

# src/exec is split in three: shuffle metadata and the estimator that reads
# it, the job manager, and the worker queues (everything else in src/exec).
EXEC_FILE_LAYERS = {
    "metadata_store": "exec.metadata",
    "estimator": "exec.metadata",
    "job_manager": "exec.jm",
}


def layer_of(path, root):
    """Layer of one source file, or None to charge the caller."""
    root = os.path.normpath(root) + os.sep
    path = os.path.normpath(path)
    if not path.startswith(root):
        return None
    parts = path[len(root):].split(os.sep)
    if len(parts) < 3 or parts[0] != "src":
        return None
    module = parts[1]
    if module not in MODULE_LAYERS:
        return "other"
    if module == "exec":
        stem = os.path.splitext(parts[2])[0]
        return EXEC_FILE_LAYERS.get(stem, MODULE_LAYERS[module])
    return MODULE_LAYERS[module]


def attribute(frames, files_of, root):
    """Layer of one sample. `frames` lists addresses innermost first;
    `files_of` maps an address to its inline chain of files, innermost
    first (None for an address outside the binary)."""
    for address in frames:
        for path in files_of.get(address) or ():
            layer = layer_of(path, root)
            if layer is not None:
                return layer
    return "other"


def self_shares(samples, files_of, root):
    """Share of samples per layer, over every layer in LAYERS."""
    counts = dict.fromkeys(LAYERS, 0)
    for frames in samples:
        counts[attribute(frames, files_of, root)] += 1
    total = max(1, len(samples))
    return {layer: count / total for layer, count in counts.items()}


def read_samples(path):
    """Samples as written by the sampler: hex offsets, '-' outside the binary."""
    samples = []
    with open(path) as f:
        for line in f:
            samples.append([None if tok == "-" else int(tok, 16) for tok in line.split()])
    return samples


def parse_addr2line(text):
    """Parses `addr2line -a -i` output into {address: [file, ...]}."""
    files_of = {}
    current = None
    for line in text.splitlines():
        if line.startswith("0x"):
            current = int(line, 16)
            files_of[current] = []
        elif current is not None and line:
            path = line.rsplit(":", 1)[0]
            if path != "??":
                files_of[current].append(path)
    return files_of


def symbolize(binary, addresses):
    """Resolves binary offsets to inline chains of source files."""
    addresses = sorted({a for a in addresses if a is not None})
    if not addresses:
        return {}
    out = subprocess.run(["addr2line", "-a", "-i", "-e", binary],
                         input="\n".join(hex(a) for a in addresses),
                         capture_output=True, text=True, check=True, timeout=120)
    return parse_addr2line(out.stdout)
