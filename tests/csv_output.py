"""Read an emitted CSV file back, for tests that check its cells."""


def read_csv_output(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse an emitted CSV file back into (header dict, columns, data rows).

    Only comments above the column row are configuration; comments after the
    data are footer notes and are skipped.
    """
    header: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if not columns and " = " in line:
                    key, _, value = line[1:].partition(" = ")
                    header[key.strip()] = value.strip()
                continue
            if not columns:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows
