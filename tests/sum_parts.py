"""Where one group's coefficients sit in a split of a direct sum such as su2+su3+su4."""
import numpy as np


def part_columns(split, group: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``group``'s labels among the split's S labels, and among its S^c labels."""
    def mine(labels):
        return np.flatnonzero([label.startswith(f"{group}.") for label in labels])

    return mine(split.hamiltonian_labels), mine(split.constraint_labels)
