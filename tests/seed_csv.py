"""The study-file writers as they were before the block writer.

A verbatim copy of the per-row ``csv.writer`` loops, kept as the reference
that ``test_data_model`` requires ``data_model.write_main_csv`` and
``write_validation_csv`` to match byte for byte.  Only the imports differ.
"""

import csv

from calibcox.data_model import _format_radius


def write_main_csv(path, dataset):
    """Write a :class:`MainDataset` using the canonical schema, 12 significant digits."""
    header = (["id", "time", "event"]
              + [f"z_{_format_radius(r)}" for r in dataset.radii]
              + list(dataset.confounder_names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            writer.writerow(
                [dataset.ids[i], f"{dataset.time[i]:.12g}", dataset.event[i]]
                + [f"{v:.12g}" for v in dataset.z[i]]
                + [f"{v:.12g}" for v in dataset.w[i]]
            )


def write_validation_csv(path, dataset):
    """Write a :class:`ValidationDataset` using the canonical schema."""
    header = (["id", "occasion", "x"]
              + [f"z_{_format_radius(r)}" for r in dataset.radii]
              + list(dataset.confounder_names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            writer.writerow(
                [dataset.ids[i], dataset.occasion[i], f"{dataset.x[i]:.12g}"]
                + [f"{v:.12g}" for v in dataset.z[i]]
                + [f"{v:.12g}" for v in dataset.w[i]]
            )
