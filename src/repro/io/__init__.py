"""Data ingestion and equation serialization.

* :mod:`repro.io.textformat` — the wet-lab measurement text format
  (the paper's Excel → text conversion step).
* :mod:`repro.io.equations_io` — binary/text serialization of formed
  equation blocks, the write path behind the I/O-cost experiments.
"""

from repro.io.equations_io import (
    EquationHeader,
    EquationWriter,
    load_blocks_binary,
    read_blocks_binary,
    read_header,
    save_blocks_binary,
    save_blocks_text,
    write_block_binary,
    write_block_text,
)
from repro.io.workbook import (
    WorkbookError,
    convert_workbook,
    export_workbook,
    load_workbook,
)
from repro.io.textformat import (
    FormatError,
    dump_measurement,
    dumps_measurement,
    load_campaign,
    load_measurement,
    loads_measurement,
    save_campaign,
    save_measurement,
)

__all__ = [
    "EquationHeader",
    "EquationWriter",
    "FormatError",
    "WorkbookError",
    "convert_workbook",
    "export_workbook",
    "load_workbook",
    "dump_measurement",
    "dumps_measurement",
    "load_blocks_binary",
    "load_campaign",
    "load_measurement",
    "loads_measurement",
    "read_blocks_binary",
    "read_header",
    "save_blocks_binary",
    "save_blocks_text",
    "save_campaign",
    "save_measurement",
    "write_block_binary",
    "write_block_text",
]
