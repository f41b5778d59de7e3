<?php echo $this->Html->link('Back to search', ['action' => 'search']); ?>
<table class="quotes">
<?php foreach ($quotes as $quote): ?>
  <tr><td><?php echo h($quote['Quote']['text']); ?></td></tr>
<?php endforeach; ?>
</table>
