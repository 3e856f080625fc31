#!/usr/bin/env python3
"""Telemetry smoke test: run the spaden CLI's exports and validate them.

    tools/validate_telemetry.py --spaden build/tools/spaden --out DIR

Runs `spaden spmv cant --scale 0.125 --iters 3` into DIR once with all three
exports (metrics.prom, metrics.json, engine_trace.json) and once per
--threads 1/4 with --no-shared-l2 (metrics_<T>.json). Checks the exposition
grammar, the spaden-metrics-v1 schema, span sums and trace nesting, and that
the deterministic metrics section is byte-identical across thread counts.
Exits non-zero on the first failure. Also the ctest `TelemetrySmoke`.
"""
import argparse
import json
import os
import re
import subprocess
import sys

THREADS = (1, 4)


def run_cli(spaden, *extra):
    cmd = [spaden, 'spmv', 'cant', '--scale', '0.125', '--method', 'Spaden',
           '--iters', '3', *extra]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def validate_exports(out):
    # -- Prometheus exposition grammar (names, HELP/TYPE, sample lines)
    name_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*$')
    sample_re = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ([0-9eE.+-]+|\+Inf|-Inf|NaN)$')
    families = {}
    for line in open(os.path.join(out, 'metrics.prom')):
        line = line.rstrip('\n')
        if not line:
            continue
        if line.startswith('# HELP ') or line.startswith('# TYPE '):
            parts = line.split(' ', 3)
            assert name_re.match(parts[2]), line
            if line.startswith('# TYPE '):
                families[parts[2]] = parts[3]
            continue
        m = sample_re.match(line)
        assert m, f'bad sample line: {line!r}'
    assert families, 'no metric families'
    assert any(t == 'histogram' for t in families.values()), families
    # -- spaden-metrics-v1 JSON schema + host segregation
    doc = json.load(open(os.path.join(out, 'metrics.json')))
    assert doc['schema'] == 'spaden-metrics-v1', doc['schema']
    for m in doc['metrics']:
        assert 'host' not in m['name'], m['name']
        if m['type'] == 'histogram':
            for key in ('count', 'sum', 'min', 'p50', 'p90', 'p99',
                        'max', 'buckets'):
                assert key in m, (m['name'], key)
    assert any('host' in m['name'] for m in doc['host_metrics'])
    # -- span aggregates: phases inside multiply must not exceed it,
    #    and must cover most of it (host wall-clock, 25% tolerance +
    #    1ms absolute slack for tiny spans).
    spans = {s['name']: s for s in doc['spans']}
    assert 'multiply' in spans and 'convert' in spans, spans.keys()
    multiply = spans['multiply']['host_seconds']
    phases = sum(s['host_seconds'] for n, s in spans.items()
                 if n not in ('multiply', 'convert', 'verify_format'))
    assert phases <= multiply * 1.25 + 1e-3, (phases, multiply)
    # -- stitched trace: per-SM device slices nest inside their launch
    #    span; child engine spans nest inside their parents.
    trace = json.load(open(os.path.join(out, 'engine_trace.json')))
    events = [e for e in trace['traceEvents'] if e.get('ph') == 'X']
    engine = {e['args']['span']: e for e in events if e['pid'] == 0}
    device = [e for e in events if e['pid'] == 1]
    assert engine and device, (len(engine), len(device))
    slack = 1e-6
    for e in device:
        owners = [g for g in engine.values()
                  if g['ts'] - slack <= e['ts'] and
                     e['ts'] + e['dur'] <= g['ts'] + g['dur'] + slack]
        assert owners, f'device slice outside every engine span: {e}'
    sms = {e['tid'] for e in device}
    print(f'ok: {len(families)} families, {len(engine)} engine spans, '
          f'{len(device)} device slices on {len(sms)} SM lanes')


def compare_deterministic_sections(out):
    docs = {t: json.dumps(json.load(open(os.path.join(out, f'metrics_{t}.json')))['metrics'],
                          sort_keys=True) for t in THREADS}
    for key, body in docs.items():
        assert body == docs[THREADS[0]], f'deterministic metrics differ: threads={key}'
    print('ok: modeled-time metrics byte-identical across threads', list(docs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--spaden', required=True, help='path to the spaden CLI')
    parser.add_argument('--out', required=True, help='directory for the exports')
    args = parser.parse_args()
    out = args.out
    os.makedirs(out, exist_ok=True)
    run_cli(args.spaden,
            '--metrics', os.path.join(out, 'metrics.prom'),
            '--metrics-json', os.path.join(out, 'metrics.json'),
            '--engine-trace', os.path.join(out, 'engine_trace.json'))
    for t in THREADS:
        run_cli(args.spaden, '--threads', str(t), '--no-shared-l2',
                '--metrics-json', os.path.join(out, f'metrics_{t}.json'))
    validate_exports(out)
    compare_deterministic_sections(out)
    return 0


if __name__ == '__main__':
    sys.exit(main())
