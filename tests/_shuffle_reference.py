"""Dict-based reference for ``combine_by_key``, shared by the shuffle tests.

The engine buckets combiners inside its map tasks and splices whole
buckets on the driver.  This reference does the same routing the obvious
way: split the input like ``parallelize``, pre-combine each source
partition in insertion order, place every ``(key, combiner)`` pair with a
``stable_hash`` recount, size it with ``estimate_bytes``, and merge each
bucket in (source partition, insertion) order.
"""

from repro.distengine import estimate_bytes, stable_hash


def reference_combine(
    data, n_source, n_target, create_combiner, merge_value, merge_combiners
):
    """``(partitions, bucket_bytes)`` an unbudgeted shuffle must reproduce."""
    base, extra = divmod(len(data), n_source)
    buckets = [{} for _ in range(n_target)]
    bucket_bytes = [0] * n_target
    cursor = 0
    for source in range(n_source):
        size = base + (1 if source < extra else 0)
        combiners = {}
        for key, value in data[cursor:cursor + size]:
            combiners[key] = (
                merge_value(combiners[key], value) if key in combiners
                else create_combiner(value)
            )
        cursor += size
        for key, combiner in combiners.items():
            index = stable_hash(key) % n_target
            bucket_bytes[index] += estimate_bytes(key) + estimate_bytes(combiner)
            bucket = buckets[index]
            bucket[key] = (
                merge_combiners(bucket[key], combiner) if key in bucket
                else combiner
            )
    return [list(bucket.items()) for bucket in buckets], bucket_bytes
