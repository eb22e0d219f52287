"""Streaming deduplication: resolve records as they arrive.

A warehouse rarely sees its data all at once.  This example feeds the
restaurant dataset through :class:`repro.stream.StreamingResolver` in six
batches: each batch's new records are matched against everything seen so
far using only *new* candidate pairs (the old ones are never re-paid), and
the cluster structure grows monotonically.

Run:
    python examples/streaming_dedup.py
"""

from repro import PowerConfig, PowerResolver, restaurant
from repro.stream import StreamingResolver


def main() -> None:
    table = restaurant(seed=7)
    config = PowerConfig(seed=3)

    resolver = StreamingResolver(
        table.attributes, config=config, name="stream", worker_band="90"
    )
    batch_size = 143  # six batches of the 858 records
    print(f"{'batch':>5s} {'records':>8s} {'new pairs':>9s} "
          f"{'questions':>9s} {'clusters':>8s}")
    for start in range(0, len(table), batch_size):
        records = table.records[start : start + batch_size]
        report = resolver.add_batch(
            [record.values for record in records],
            entity_ids=[record.entity_id for record in records],
        )
        print(f"{report['batch']:5d} {len(resolver.table):8d} "
              f"{report['new_pairs']:9d} {report['questions']:9d} "
              f"{report['clusters']:8d}")

    print("\nfinal state:")
    print(resolver.summary())

    one_shot = PowerResolver(config).resolve(table, worker_band="90")
    print(
        f"\none-shot resolution of the same table: {one_shot.questions} questions, "
        f"F1={one_shot.quality.f_measure:.3f}\n"
        "Streaming pays some extra questions (each batch re-derives boundary\n"
        "information the one-shot graph would have shared), but never touches\n"
        "an already-decided pair again."
    )


if __name__ == "__main__":
    main()
