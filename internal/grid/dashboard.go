package grid

import "net/http"

// serveDashboard answers /dashboard with the live grid dashboard: one
// self-contained HTML page (no external assets, works on an air-gapped
// grid) that polls the JSON /metrics snapshot every second and redraws
// in place — fleet and queue tiles, the job stage latencies, per-batch
// ETAs, and a progress bar per in-flight job from the same interval
// snapshots the NDJSON streams carry.
func serveDashboard(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML))
}

const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>helper grid</title>
<style>
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
         background: #101418; color: #d8dee6; margin: 1.5rem; }
  h1 { font-size: 1rem; margin: 0 0 1rem; color: #8fd3a5; }
  h2 { font-size: .8rem; margin: 1.2rem 0 .4rem; color: #7aa2c4;
       text-transform: uppercase; letter-spacing: .08em; }
  .tiles { display: flex; flex-wrap: wrap; gap: .6rem; }
  .tile { background: #1a2027; border: 1px solid #2a323c; border-radius: 6px;
          padding: .5rem .9rem; min-width: 7.5rem; }
  .tile .v { font-size: 1.3rem; color: #e8eef5; }
  .tile .k { font-size: .7rem; color: #8a97a5; text-transform: uppercase; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: .2rem .7rem .2rem 0; white-space: nowrap; }
  th { color: #8a97a5; font-weight: normal; font-size: .75rem; }
  .bar { display: inline-block; width: 14rem; height: .7rem; background: #232b34;
         border-radius: 3px; overflow: hidden; vertical-align: middle; }
  .bar i { display: block; height: 100%; background: #4d9e71; }
  .muted { color: #66737f; }
  #err { color: #d9837d; }
</style>
</head>
<body>
<h1>helper grid <span id="err"></span></h1>
<div class="tiles" id="tiles"></div>
<h2>stages</h2><div id="stages" class="muted">none yet</div>
<h2>batches</h2><div id="batches" class="muted">no connected batches</div>
<h2>in-flight jobs</h2><div id="running" class="muted">idle</div>
<script>
function esc(s) {
  return String(s).replace(/[&<>"]/g, c => ({'&':'&amp;','<':'&lt;','>':'&gt;','"':'&quot;'}[c]));
}
function tile(k, v) {
  return '<div class="tile"><div class="v">' + esc(v) + '</div><div class="k">' + esc(k) + '</div></div>';
}
function fmtMS(ms) {
  if (ms >= 60000) return (ms / 60000).toFixed(1) + 'm';
  if (ms >= 1000) return (ms / 1000).toFixed(1) + 's';
  return Math.round(ms) + 'ms';
}
function stageCell(st, name) {
  if (!st || !st[name]) return '<td class="muted">—</td>';
  return '<td>' + fmtMS(st[name].mean_ms) + '</td>';
}
function render(m) {
  document.getElementById('tiles').innerHTML =
    tile('workers', m.workers) + tile('peers', m.peers) +
    tile('queued', m.queue_depth) + tile('leased', m.leased) +
    tile('completed', m.completed) + tile('failed', m.failed) +
    tile('cache hits', m.cache_hits) + tile('store', m.store_entries) +
    tile('steals in/out', m.steals_in + '/' + m.steals_out);
  if (m.stages) {
    document.getElementById('stages').innerHTML =
      '<table><tr><th>admission</th><th>first progress</th><th>exec</th><th>e2e</th></tr><tr>' +
      stageCell(m.stages, 'admission') + stageCell(m.stages, 'first_progress') +
      stageCell(m.stages, 'exec') + stageCell(m.stages, 'e2e') + '</tr></table>';
  }
  if (m.batches && m.batches.length) {
    let h = '<table><tr><th>batch</th><th>pending</th><th>queued</th><th>running</th><th>eta</th></tr>';
    for (const b of m.batches) {
      h += '<tr><td>' + esc(b.id) + '</td><td>' + b.pending + '</td><td>' + b.queued +
           '</td><td>' + b.running + '</td><td>' + fmtMS(b.eta_ms) + '</td></tr>';
    }
    document.getElementById('batches').innerHTML = h + '</table>';
  } else {
    document.getElementById('batches').innerHTML = '<span class="muted">no connected batches</span>';
  }
  if (m.running && m.running.length) {
    let h = '<table><tr><th>task</th><th>worker</th><th>rung</th><th>ipc</th><th>progress</th></tr>';
    for (const p of m.running) {
      const pct = p.total ? Math.min(100, 100 * p.uops / p.total) : 0;
      h += '<tr><td>' + esc(p.id) + '</td><td>' + esc(p.worker || '') + '</td><td>' +
           esc(p.rung || '') + '</td><td>' +
           (p.interval_ipc ? p.interval_ipc.toFixed(2) : '—') + '</td>' +
           '<td><span class="bar"><i style="width:' + pct.toFixed(1) + '%"></i></span> ' +
           (p.total ? pct.toFixed(0) + '%' : '<span class="muted">?</span>') + '</td></tr>';
    }
    document.getElementById('running').innerHTML = h + '</table>';
  } else {
    document.getElementById('running').innerHTML = '<span class="muted">idle</span>';
  }
}
async function tick() {
  try {
    const r = await fetch('/metrics', {headers: {Accept: 'application/json'}});
    render(await r.json());
    document.getElementById('err').textContent = '';
  } catch (e) {
    document.getElementById('err').textContent = ' — ' + e;
  }
}
tick();
setInterval(tick, 1000);
</script>
</body>
</html>
`
