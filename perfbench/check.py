"""Correctness checks on a run's artifacts.

Every artifact of a subcommand is reduced to its finite numbers, in file
order (JSON objects by sorted key, CSV cells row by row).  The reference
of one workload input keeps every one of those numbers and the file's
SHA-256, in perfbench/references.npz.  A run matches its reference when
each artifact has as many numbers as the reference and each number is
within 1e-12 x scale of the reference number at the same place.  The
scale is the largest magnitude among the file's non-integral reference
numbers, or 1 if it has none: grid sizes, step counts and index edges are
integers, and leaving them out keeps the scale that of the quantities the
file reports.  Byte identity is reported on its own, as information: a
change that reorders a sum may move the last bits.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

REL_TOL = 1e-12


def artifact_hashes(out_dir):
    """SHA-256 of every file the run wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in os.listdir(out_dir))


def _json_numbers(node, out):
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        out.append(float(node))
    elif isinstance(node, dict):
        for key in sorted(node):
            _json_numbers(node[key], out)
    else:
        for item in node:
            _json_numbers(item, out)


def numbers(path):
    """Every finite number of a JSON or CSV artifact, in file order."""
    out = []
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            _json_numbers(json.load(fh), out)
        else:
            for row in csv.reader(fh):
                for cell in row:
                    try:
                        out.append(float(cell))
                    except ValueError:
                        pass
    return [x for x in out if math.isfinite(x)]


def snapshot(out_dir, hashes):
    """(SHA-256, numbers) of every artifact of a run, by file name."""
    return {name: (sha, np.array(numbers(os.path.join(out_dir, name)),
                                 dtype=np.float64))
            for name, sha in hashes.items()}


def scale(xs):
    """Largest magnitude among the non-integral numbers, or 1."""
    xs = np.asarray(xs, dtype=np.float64)
    frac = xs[xs != np.floor(xs)]
    return float(np.abs(frac).max()) if frac.size else 1.0


def compare(found, reference):
    """(numbers match, bytes identical, first mismatch or None) of two
    snapshots of one workload input."""
    if sorted(found) != sorted(reference):
        return False, False, "artifact names %s != %s" % (sorted(found),
                                                          sorted(reference))
    identical = all(found[n][0] == reference[n][0] for n in reference)
    for name, (_, ref) in sorted(reference.items()):
        got = found[name][1]
        if got.shape != ref.shape:
            return False, identical, "%s: %d numbers, reference %d" % (
                name, got.size, ref.size)
        bad = np.flatnonzero(np.abs(got - ref) > REL_TOL * scale(ref))
        if bad.size:
            i = int(bad[0])
            return False, identical, "%s: number %d is %r, reference %r" % (
                name, i, float(got[i]), float(ref[i]))
    return True, identical, None


def _key(workload, index, name, part):
    return "%s|%d|%s|%s" % (workload, index, name, part)


def save_references(path, refs):
    """Write {(workload, input index): snapshot} as one compressed file."""
    arrays = {}
    for (workload, index), snap in refs.items():
        for name, (sha, xs) in snap.items():
            arrays[_key(workload, index, name, "sha256")] = np.array(sha)
            arrays[_key(workload, index, name, "numbers")] = xs
    np.savez_compressed(path, **arrays)


def load_reference(path, workload, index):
    """The snapshot recorded for one workload input, or None."""
    if not os.path.isfile(path):
        return None
    prefix = _key(workload, index, "", "")[:-1]
    with np.load(path) as refs:
        names = sorted({k[len(prefix):].rsplit("|", 1)[0]
                        for k in refs.files if k.startswith(prefix)})
        return {n: (str(refs[prefix + n + "|sha256"]),
                    refs[prefix + n + "|numbers"]) for n in names} or None
